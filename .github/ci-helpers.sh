# Shell helpers shared by the CLI steps of workflows/tests.yml; source it from
# the root of the checkout.

# expect WANT COMMAND...: runs COMMAND with its output discarded, prints its
# exit code, and returns non-zero unless that code is WANT
expect() { want=$1; shift; code=0; "$@" > /dev/null 2>&1 || code=$?; echo "exit $code, want $want: $*"; [ "$code" -eq "$want" ]; }

# expect_stderr WANT TEXT COMMAND...: as expect, printing COMMAND's stderr,
# which must also contain TEXT
expect_stderr() {
  want=$1; text=$2; shift 2; code=0
  err=$("$@" 2>&1 > /dev/null) || code=$?
  echo "exit $code, want $want: $*"; echo "$err"
  [ "$code" -eq "$want" ] && case "$err" in *"$text"*) ;; *) false ;; esac
}

# python -c "$same_text" PROOF...: every proof file reads back and dumps to its
# own text
same_text='import sys
from projstark import dump_proof, load_proof
for path in sys.argv[1:]:
    text = open(path).read()
    assert dump_proof(load_proof(text)) == text, path'
