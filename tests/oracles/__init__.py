"""End-of-run oracles: arithmetic over a finished ``System`` that shares
no code with the access paths it checks."""
