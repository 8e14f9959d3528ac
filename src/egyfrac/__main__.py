"""``python -m egyfrac``: the egyfrac command line."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
