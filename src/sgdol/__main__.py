"""``python -m sgdol``: the ``sgdol`` command without an installed script."""

from .cli import main

if __name__ == "__main__":
    main()
