# lint-fixture: src/repro/local/engine.py
"""Bad REP002 fixture: tuple-edge materialisation on a hot-path module."""


def per_edge_python(network, arrays):
    graph = network.to_networkx()  # expect[REP002]
    pairs = arrays.as_pairs()  # expect[REP002]
    edge_view = list(network.edges())  # expect[REP002]
    total = 0
    for u, v in network.edges():  # expect[REP002]
        total += u + v
    weights = [u for u, _ in network.edges()]  # expect[REP002]
    return graph, pairs, edge_view, total, weights


def per_edge_property(network, values):
    known = set(network.edges)  # expect[REP002]
    total = 0
    for u, v in network.edges:  # expect[REP002]
        total += u + v
    for i, (u, v) in enumerate(network.edges):  # expect[REP002]
        total += i
    slots = {e: i for i, e in enumerate(network.edges)}  # expect[REP002]
    heads = [value for (u, v), value in zip(network.edges, values)]  # expect[REP002]
    return known, total, slots, heads


def per_edge_through_a_local_name(graph, index_of):
    pairs = graph.edges()
    relabelled = [(index_of[u], index_of[v]) for u, v in pairs]  # expect[REP002]
    view = graph.edges
    total = 0
    for i, (u, v) in enumerate(view):  # expect[REP002]
        total += i
    alias = pairs
    count = sum(1 for _ in alias)  # expect[REP002]
    return relabelled, total, count, sorted(pairs)  # expect[REP002]
