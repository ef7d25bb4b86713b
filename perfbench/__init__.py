"""Benchmark of the k3chambers CLI; see README.md."""
