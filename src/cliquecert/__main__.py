"""``python -m cliquecert``: the command-line interface."""

from .cli import app

# Guarded, so that importing the module (as tools that walk the package
# do) runs nothing.
if __name__ == "__main__":
    app()
