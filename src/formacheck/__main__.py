"""`python -m formacheck`: the same command line as the `formacheck` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
