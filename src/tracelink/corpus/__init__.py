"""Corpus loading, tokenization and normalization."""
