"""Set-up probe: a fresh interpreter imports `ssd.cli` and runs one operation.

run.py times this whole process from spawn to exit, which is what a user
pays before and around every `ssd` command.  Usage:

  python3 probe.py '<argv as a JSON list>'
"""

import contextlib
import io
import json
import sys

import ssd.cli

if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):
        code = ssd.cli.run(json.loads(sys.argv[1]))
    sys.exit(code)
