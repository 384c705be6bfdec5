"""The repository's end-to-end, layer-by-layer benchmark (see README.md)."""
