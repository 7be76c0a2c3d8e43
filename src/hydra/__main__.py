"""Entry point for `python3 -m hydra`: the command line.

Monitors are not started through here: the daemon forks them and each runs
`hydra.monitor.Monitor` in the forked process, with no exec.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
