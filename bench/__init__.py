"""The simulator's own benchmark: ``python -m bench`` (see README.md)."""
