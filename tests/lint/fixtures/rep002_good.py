# lint-fixture: src/repro/local/engine.py
"""Good REP002 fixture: array-native edge access stays silent."""


def vectorised(network, np):
    us, vs = network.edge_endpoints()
    degrees = np.bincount(us, minlength=network.n)
    for block in (us, vs):  # per-array loop, not per-edge
        degrees = degrees + block.size
    return degrees


def single_edge_lookups(network, slots):
    # Indexing the edge view is not a per-edge loop.
    edges = network.edges
    return [edges[i] for i in slots], len(network.edges)


def cold_module_can_materialise(network):
    # The same calls are legal outside the hot-path module set; this file
    # only stays silent because the calls below are allow-listed.
    # repro-lint: allow[REP002] exercising the escape hatch in tests
    return list(network.edges())


def rebound_to_arrays(network, np):
    # A name that held an edge view and is rebound to arrays is array code.
    pairs = network.edges()
    pairs = np.asarray(network.edge_endpoints())
    total = 0
    for row in pairs:  # two endpoint rows, not one loop step per edge
        total += int(row.sum())
    return [row.size for row in pairs], total
