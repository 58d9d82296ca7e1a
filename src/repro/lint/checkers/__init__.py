"""The per-file rules: each module is one row of :data:`repro.lint.rules.RULES`."""
