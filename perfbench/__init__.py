"""Same-host benchmark of the simulator (see README.md)."""
