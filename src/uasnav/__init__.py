"""Two-phase aerial grid navigation: learn a goal-reaching policy over a
landmark lattice, then fly it by recognizing landmarks with keypoint
matching and a robust affine center-distance arrival test."""

__version__ = "0.1.0"
