"""Host-cost benchmark for the replicated-object stack (see README.md)."""
