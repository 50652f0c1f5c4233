"""``python -m fuchsreduce``: the ``fuchs-reduce`` command line."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
