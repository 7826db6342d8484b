"""KG-engine benchmark (see README.md)."""
