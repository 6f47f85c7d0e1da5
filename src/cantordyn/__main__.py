"""`python -m cantordyn`: the command line front end."""

import sys

from cantordyn.cli import main

if __name__ == "__main__":
    sys.exit(main())
