import json
import os
import subprocess
import sys

# Every module that `import projstark` loads must come from the standard
# library: a third-party import such as numpy adds start-up time and memory to
# every process, the CLI and each benchmark worker included.
PROBE = """
import json, sys
before = set(sys.modules)
import projstark, projstark.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_the_standard_library():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    loaded = {name.split(".")[0] for name in json.loads(out)}
    assert "projstark" in loaded
    third_party = loaded - set(sys.stdlib_module_names) - {"projstark"}
    assert not third_party, f"import projstark loaded {sorted(third_party)}"
