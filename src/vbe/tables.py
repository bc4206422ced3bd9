"""Pinned reference values of the reproduction tables.

These are frozen expected results.  The benchmark under ``perfbench/``
checks its closure dimensions and layer counts against them, and the tests
recompute ``BDIM_TABLE``, ``FREE_PARAMS_N4`` and ``RESOURCES_N5``.
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

# resources of the linear-RCN ansatz (block 2) at its estimated threshold
# depth for a 2^4 x 2^4 target on 5 qubits: (field, structure) -> (params,
# free-parameter bound, CNOTs, CNOT bound at the ansatz's own a-ratio)
RESOURCES_N5 = {
    ("complex", "arbitrary"): (527, 512, 128, 125),
    ("real", "arbitrary"): (261, 256, 128, 126),
    ("complex", "hermitian"): (271, 256, 128, 61),
    ("real", "hermitian"): (141, 136, 136, 66),
}

