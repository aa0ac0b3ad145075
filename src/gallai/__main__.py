"""``python -m gallai``: the same command-line interface as ``gallai``."""

from .cli import entry

if __name__ == "__main__":
    entry()
