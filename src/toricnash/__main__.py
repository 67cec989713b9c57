"""`python -m toricnash ...` runs the command-line interface.

Importing this module (a tool that walks the package does) runs nothing.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
