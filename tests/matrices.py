"""Column-major matrix helpers that only the tests use, over a field object."""


def mat_mul(field, a_cols, b_cols):
    """A @ B, one field.mat_vec per column of B."""
    return [field.mat_vec(a_cols, col) for col in b_cols]


def mat_is_zero(cols):
    return all(not c for c in cols)
