"""Pinned reference values of the reproduction tables.

These are frozen expected results.  The benchmark under ``perfbench/``
checks its closure dimensions and layer counts against them, and the tests
recompute ``BDIM_TABLE`` and ``FREE_PARAMS_N4``.
"""

# (kind, n) -> dimension of the block-span basis B
BDIM_TABLE = {
    ("Z2xz", 2): 6,
    ("Z2xz", 3): 20,
    ("Z2xz", 4): 72,
    ("Z2xz", 5): 272,
    ("Cn", 2): 6,
    ("Cn", 3): 10,
    ("Cn", 4): 28,
    ("Cn", 5): 68,
    ("Cn", 6): 226,
    ("Sn", 2): 6,
    ("Sn", 3): 10,
    ("Sn", 4): 19,
    ("Sn", 5): 28,
    ("Sn", 6): 44,
    ("Sn", 7): 60,
    ("Sn", 8): 85,
}

# (kind, n) -> dimension of the symmetry-invariant Lie algebra (for context
# columns; dim(B) matches it + 1 for Z2xz and Sn, and undershoots for Cn>=4)
MSU_DIMS = {
    ("Z2xz", 2): 5,
    ("Z2xz", 3): 19,
    ("Z2xz", 4): 71,
    ("Z2xz", 5): 271,
    ("Cn", 2): 5,
    ("Cn", 3): 11,
    ("Cn", 4): 37,
    ("Cn", 5): 103,
    ("Cn", 6): 356,
    ("Sn", 2): 5,
    ("Sn", 3): 9,
    ("Sn", 4): 18,
    ("Sn", 5): 27,
    ("Sn", 6): 43,
    ("Sn", 7): 59,
    ("Sn", 8): 84,
}

# (kind, n) -> (dim_b, random-layering threshold M, circuit parameters)
GQSP_TABLE = {
    ("Z2xz", 2): (6, 2, 9),
    ("Z2xz", 3): (20, 7, 24),
    ("Z2xz", 4): (72, 24, 75),
    ("Cn", 2): (6, 2, 9),
    ("Cn", 3): (10, 4, 15),
    ("Cn", 4): (28, 9, 30),
    ("Cn", 5): (68, 23, 72),
    ("Sn", 2): (6, 2, 9),
    ("Sn", 3): (10, 4, 15),
    ("Sn", 4): (19, 6, 21),
    ("Sn", 5): (28, 9, 30),
    ("Sn", 6): (44, 15, 48),
    ("Sn", 7): (60, 20, 63),
    ("Sn", 8): (85, 28, 87),
}

# free parameters of a 2^4 x 2^4 input per (field, structure)
FREE_PARAMS_N4 = {
    ("complex", "arbitrary"): 512,
    ("real", "arbitrary"): 256,
    ("complex", "hermitian"): 256,
    ("real", "hermitian"): 136,
    ("complex", "unitary"): 255,
    ("real", "unitary"): 119,
}

# measured resources of the linear-RCN ansatz at its threshold depth for a
# 2^4 x 2^4 target on 5 qubits: (field, structure) -> (params, param bound,
# cnots, cnot bound)
RESOURCES_N5 = {
    ("complex", "arbitrary"): (527, 512, 128, 125),
    ("real", "arbitrary"): (261, 256, 128, 126),
    ("complex", "hermitian"): (271, 256, 128, 61),
    ("real", "hermitian"): (141, 136, 136, 66),
}

# ancillas -> (params, nonlocal gates) for the hermitian complex 2^4 target
MULTI_ANCILLA_N4 = {1: (141, 136), 2: (156, 156), 3: (175, 168)}
