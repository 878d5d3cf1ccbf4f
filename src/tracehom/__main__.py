"""``python -m tracehom``: the command line, as the ``tracehom`` script."""

from .cli import main

if __name__ == "__main__":
    main()
