"""Algorithms on intersection graphs of subdivided pattern graphs."""
