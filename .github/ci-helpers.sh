# Shell helpers shared by the CLI steps of workflows/tests.yml; source it from
# the root of the checkout.

# expect WANT COMMAND...: runs COMMAND with its output discarded, prints its
# exit code, and returns non-zero unless that code is WANT
expect() { want=$1; shift; code=0; "$@" > /dev/null 2>&1 || code=$?; echo "exit $code, want $want: $*"; [ "$code" -eq "$want" ]; }

# python -c "$same_text" PROOF...: every proof file reads back and dumps to its
# own text
same_text='import sys
from projstark import dump_proof, load_proof
for path in sys.argv[1:]:
    text = open(path).read()
    assert dump_proof(load_proof(text)) == text, path'
