"""Closed-loop batch benchmark of the chemorepfem schemes (see README.md)."""
