"""``python -m equicheb``: the ``equicheb`` command."""

from .cli import main

__all__: list[str] = []

if __name__ == "__main__":
    main()
