"""Host-time benchmark of the NOC-Out simulator (see perfbench/README.md)."""
