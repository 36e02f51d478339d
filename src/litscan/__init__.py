"""litscan: rule-driven evidence scanning for full-text research papers."""

__version__ = "0.1.0"
