"""Value-space tables queried by RID intersection (§1's application)."""

from .table import Column, Table

__all__ = ["Column", "Table"]
