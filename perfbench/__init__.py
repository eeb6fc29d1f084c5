"""Benchmark of the weinstein stack; see NOTES.md."""
