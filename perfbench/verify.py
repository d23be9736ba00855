"""Output checks written apart from dissolab.

Nothing here imports the program. Graphs are read from the benchmark's own
input files with a separate parser, and every optimum is recomputed with
solvers of a different design from the program's branch-and-bound: memoised
recursion over vertex subsets, split into connected components, with the
closed forms for paths and cycles at maximum degree two. Each ``check_*``
function returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
from collections import deque

# graphs per vertex count, up to isomorphism: OEIS A001349 (connected),
# A005142 (connected bipartite), A000088 (all)
OEIS = {
    "connected": {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853},
    "connected_bipartite": {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182, 9: 730},
    "all": {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34},
}


# ---------------------------------------------------------------- parsing


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, 0-based edges) from ``p edge`` text; comment lines are skipped."""
    n = -1
    edges = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            n = int(fields[2])
        elif fields[0] == "e":
            edges.append((int(fields[1]) - 1, int(fields[2]) - 1))
    if n < 0:
        raise ValueError("no header")
    return n, edges


def parse_matching(text: str) -> list[tuple[int, int]]:
    out = []
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "m":
            out.append((int(fields[1]) - 1, int(fields[2]) - 1))
    return out


def parse_output(text: str) -> dict[str, str]:
    """``key=value`` lines of a dissolab command into a dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def vertices_field(value: str) -> list[int]:
    return [int(tok) - 1 for tok in value.split()]


def pairs_field(value: str) -> list[tuple[int, int]]:
    out = []
    for tok in value.split():
        u, v = tok.split("-")
        out.append((int(u) - 1, int(v) - 1))
    return out


# ------------------------------------------------------------ graph basics


def masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def neighbour_lists(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def two_coloring(n: int, adj: list[list[int]]) -> list[int] | None:
    color = [-1] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def is_connected(n: int, adj: list[list[int]]) -> bool:
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def dissociation_problems(n: int, edge_set: set, vs: list[int]) -> list[str]:
    if len(set(vs)) != len(vs) or any(not 0 <= v < n for v in vs):
        return ["vertex list repeats or leaves the graph"]
    inside = set(vs)
    degree = dict.fromkeys(inside, 0)
    for u, v in edge_set:
        if u in inside and v in inside:
            degree[u] += 1
            degree[v] += 1
    bad = [v for v, d in degree.items() if d > 1]
    return [f"vertex {bad[0] + 1} has {degree[bad[0]]} neighbours in the set"] if bad else []


def independence_problems(n: int, edge_set: set, vs: list[int]) -> list[str]:
    if len(set(vs)) != len(vs) or any(not 0 <= v < n for v in vs):
        return ["vertex list repeats or leaves the graph"]
    inside = set(vs)
    for u, v in edge_set:
        if u in inside and v in inside:
            return [f"edge {u + 1}-{v + 1} inside the set"]
    return []


def matching_problems(edge_set: set, pairs: list[tuple[int, int]], induced: bool) -> list[str]:
    seen: set[int] = set()
    for u, v in pairs:
        if (min(u, v), max(u, v)) not in edge_set:
            return [f"{u + 1}-{v + 1} is not an edge"]
        if u in seen or v in seen:
            return [f"{u + 1}-{v + 1} shares a vertex with another pair"]
        seen.update((u, v))
    if induced:
        owner = {}
        for i, (u, v) in enumerate(pairs):
            owner[u] = owner[v] = i
        for u, v in edge_set:
            if u in owner and v in owner and owner[u] != owner[v]:
                return [f"edge {u + 1}-{v + 1} joins two matched pairs"]
    return []


def canon_edges(edges) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in edges}


# ---------------------------------------------------------- exact solvers


def _components(mask: int, adj: list[int]) -> list[int]:
    comps = []
    while mask:
        comp = mask & -mask
        frontier = comp
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new = adj[bit.bit_length() - 1] & mask & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        mask &= ~comp
    return comps


def _solver(adj: list[int], closed, branch):
    """Memoised maximum over subsets, per component.

    ``closed(k, is_cycle)`` gives the optimum of a path or cycle on k
    vertices; ``branch(v, s, f)`` combines the sub-optima for a vertex v of
    degree at least three in s.
    """
    memo: dict[int, int] = {}

    def f(s: int) -> int:
        total = 0
        for comp in _components(s, adj):
            if comp in memo:
                total += memo[comp]
                continue
            best_v, best_d, edges2 = -1, -1, 0
            w = comp
            while w:
                bit = w & -w
                w ^= bit
                v = bit.bit_length() - 1
                d = (adj[v] & comp).bit_count()
                edges2 += d
                if d > best_d:
                    best_v, best_d = v, d
            k = comp.bit_count()
            if best_d <= 2:
                value = closed(k, edges2 // 2 == k and k >= 3)
            else:
                value = branch(best_v, comp, f)
            memo[comp] = value
            total += value
        return total

    return f


def alpha(n: int, edges) -> int:
    adj = masks(n, edges)

    def branch(v, s, f):
        bit = 1 << v
        return max(f(s & ~bit), 1 + f(s & ~bit & ~adj[v]))

    return _solver(adj, lambda k, cyc: k // 2 if cyc else (k + 1) // 2, branch)((1 << n) - 1)


def diss(n: int, edges) -> int:
    adj = masks(n, edges)

    def branch(v, s, f):
        bit = 1 << v
        rest = s & ~bit & ~adj[v]
        best = max(f(s & ~bit), 1 + f(rest))
        w = adj[v] & s
        while w:
            ub = w & -w
            w ^= ub
            best = max(best, 2 + f(rest & ~adj[ub.bit_length() - 1]))
        return best

    return _solver(adj, lambda k, cyc: k - (k + 2) // 3 if cyc else k - k // 3, branch)((1 << n) - 1)


def nu_s(n: int, edges) -> int:
    adj = masks(n, edges)

    def branch(v, s, f):
        bit = 1 << v
        best = f(s & ~bit)
        rest = s & ~bit & ~adj[v]
        w = adj[v] & s
        while w:
            ub = w & -w
            w ^= ub
            best = max(best, 1 + f(rest & ~ub & ~adj[ub.bit_length() - 1]))
        return best

    return _solver(adj, lambda k, cyc: k // 3 if cyc else (k + 1) // 3, branch)((1 << n) - 1)


def cnf_satisfiable(var_count: int, clauses) -> bool:
    """Truth table: try every assignment."""
    for values in itertools.product((False, True), repeat=var_count):
        if all(any(values[var] == pol for var, pol in clause) for clause in clauses):
            return True
    return False


def max_matching_size(n: int, adj: list[list[int]], color: list[int]) -> int:
    """Hopcroft-Karp, iterative, from side 0 of ``color``."""
    left = [v for v in range(n) if color[v] == 0]
    mate = [-1] * n
    for u in left:  # greedy start
        for v in adj[u]:
            if mate[v] == -1:
                mate[u], mate[v] = v, u
                break
    inf = n + 1
    while True:
        dist = [inf] * n
        queue = deque()
        for u in left:
            if mate[u] == -1:
                dist[u] = 0
                queue.append(u)
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = mate[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            break
        for root in left:
            if mate[root] != -1:
                continue
            # iterative DFS along the layers; stack holds (vertex, next index)
            stack = [(root, 0)]
            path = []
            while stack:
                u, i = stack[-1]
                if i == len(adj[u]):
                    dist[u] = inf
                    stack.pop()
                    if path:
                        path.pop()
                    continue
                stack[-1] = (u, i + 1)
                v = adj[u][i]
                w = mate[v]
                if w == -1:
                    path.append((u, v))
                    for a, b in path:
                        mate[a], mate[b] = b, a
                    break
                if dist[w] == dist[u] + 1:
                    path.append((u, v))
                    stack.append((w, 0))
    return sum(1 for u in left if mate[u] != -1)


# ------------------------------------------------------------ isomorphism


def _invariant(n: int, adj: list[int]) -> tuple:
    colors = [adj[v].bit_count() for v in range(n)]
    for _ in range(3):
        sigs = [(colors[v], tuple(sorted(colors[w] for w in range(n) if adj[v] >> w & 1)))
                for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
    return (n, tuple(sorted(sigs)))


def isomorphic(n: int, a: list[int], b: list[int]) -> bool:
    """Backtracking search for an adjacency-preserving bijection."""
    deg_a = [x.bit_count() for x in a]
    deg_b = [x.bit_count() for x in b]
    if sorted(deg_a) != sorted(deg_b):
        return False
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg_b[w] != deg_a[v]:
                continue
            if all(((a[v] >> u) & 1) == ((b[w] >> image[u]) & 1) for u in range(v)):
                image[v], used[w] = w, True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


# ----------------------------------------------------------------- checks


def check_catalog(name: str, lo: int, hi: int, graphs: list[tuple[int, list]]) -> list[str]:
    """Sizes per n equal OEIS, members have the property, no two isomorphic."""
    need_conn = name != "all"
    need_bip = name == "connected_bipartite"
    problems = []
    counts: dict[int, int] = {}
    buckets: dict[tuple, list[list[int]]] = {}
    for n, edges in graphs:
        counts[n] = counts.get(n, 0) + 1
        if len(canon_edges(edges)) != len(edges) or any(u == v for u, v in edges):
            problems.append(f"{name}: graph on {n} vertices has a loop or repeated edge")
            continue
        lists = neighbour_lists(n, edges)
        if need_conn and not is_connected(n, lists):
            problems.append(f"{name}: disconnected graph on {n} vertices")
        if need_bip and two_coloring(n, lists) is None:
            problems.append(f"{name}: non-bipartite graph on {n} vertices")
        adj = masks(n, edges)
        bucket = buckets.setdefault(_invariant(n, adj), [])
        if any(isomorphic(n, adj, other) for other in bucket):
            problems.append(f"{name}: two isomorphic graphs on {n} vertices")
        bucket.append(adj)
    expected = {n: OEIS[name][n] for n in range(lo, hi + 1)}
    if counts != expected:
        problems.append(f"{name}: counts {sorted(counts.items())} differ from OEIS {sorted(expected.items())}")
    return problems


def check_solve(graph_text: str, out: str, spec: dict) -> list[str]:
    """Witnesses, the inequality chain, optimality, and the gadget theorems."""
    n, edges = parse_dimacs(graph_text)
    es = canon_edges(edges)
    o = parse_output(out)
    problems = []
    values = {}
    for key, wkey, check in (
        ("diss", "diss_witness", dissociation_problems),
        ("alpha", "alpha_witness", independence_problems),
    ):
        if key in spec["invariants"]:
            if key not in o:
                return [f"no {key} in output"]
            values[key] = int(o[key])
            witness = vertices_field(o[wkey])
            problems += [f"{key} witness: {p}" for p in check(n, es, witness)]
            if len(witness) != values[key]:
                problems.append(f"{key} witness has {len(witness)} vertices, value is {values[key]}")
    if "nus" in spec["invariants"]:
        if "nu_s" not in o:
            return ["no nu_s in output"]
        values["nus"] = int(o["nu_s"])
        pairs = pairs_field(o["nu_s_witness"])
        problems += [f"nu_s witness: {p}" for p in matching_problems(es, pairs, True)]
        if len(pairs) != values["nus"]:
            problems.append(f"nu_s witness has {len(pairs)} edges, value is {values['nus']}")
    if int(o.get("n", -1)) != n or int(o.get("m", -1)) != len(es):
        problems.append("n or m differs from the input file")
    d, a, s = values.get("diss"), values.get("alpha"), values.get("nus")
    if d is not None and a is not None and not a <= d <= 2 * a:
        problems.append(f"chain broken: alpha={a} diss={d}")
    if s is not None and not (max(a, 2 * s) <= d <= a + s <= 2 * a):
        problems.append(f"chain broken: alpha={a} diss={d} nu_s={s}")
    kind = spec["kind"]
    if kind == "random":
        reference = {"diss": diss, "alpha": alpha, "nus": nu_s}
        for key, value in values.items():
            truth = reference[key](n, edges)
            if value != truth:
                problems.append(f"{key}={value}, independent solver gives {truth}")
    else:
        m = len(spec["clauses"])
        sat = cnf_satisfiable(spec["var_count"], spec["clauses"])
        if kind == "fig3":
            if a != m:
                problems.append(f"fig3 alpha={a}, clauses={m}")
            if (d == 2 * a) != sat:
                problems.append(f"fig3 diss=2alpha is {d == 2 * a}, satisfiable is {sat}")
            if s is not None and (d == 2 * s) != sat:
                problems.append(f"fig3 diss=2nu_s is {d == 2 * s}, satisfiable is {sat}")
        else:
            if d != 2 * m:
                problems.append(f"fig4 diss={d}, 2*clauses={2 * m}")
            if (d == a) != sat:
                problems.append(f"fig4 diss=alpha is {d == a}, satisfiable is {sat}")
    return problems


def check_poly(graph_text: str, matching_text: str | None, rec_out: str, approx_out: str,
               spec: dict) -> list[str]:
    """recognize and approx on one bipartite file.

    The planted outcome must come back; an extremal answer must carry a
    dissociation set of the planted size; a MatchingSizeMismatch must be
    true of an independently computed maximum matching of G - M; approx must
    return a dissociation set of size alpha(G - M) = n - nu(G - M) for a
    maximum matching M of G.
    """
    n, edges = parse_dimacs(graph_text)
    es = canon_edges(edges)
    lists = neighbour_lists(n, edges)
    color = two_coloring(n, lists)
    if color is None:
        return ["input is not bipartite"]
    nu_g = max_matching_size(n, lists, color)

    def nu_without(pairs) -> int:
        gone = canon_edges(pairs)
        return max_matching_size(n, neighbour_lists(n, es - gone), color)

    problems = []
    r = parse_output(rec_out)
    m_pairs = pairs_field(r.get("matching", ""))
    if matching_text is not None and canon_edges(m_pairs) != canon_edges(parse_matching(matching_text)):
        problems.append("recognize printed a matching other than the one given")
    problems += [f"recognize matching: {p}" for p in matching_problems(es, m_pairs, False)]
    outcome = "extremal" if r.get("outcome") == "extremal" else r.get("reason")
    if outcome != spec["expected"]:
        problems.append(f"recognize says {outcome}, planted {spec['expected']}")
    elif outcome == "extremal":
        chosen = vertices_field(r["set"])
        problems += [f"extremal set: {p}" for p in dissociation_problems(n, es, chosen)]
        if len(chosen) != spec["set_size"] or int(r["set_size"]) != len(chosen):
            problems.append(f"extremal set has {len(chosen)} vertices, planted {spec['set_size']}")
        labelled = [vertices_field(r[f"label_{c}"]) for c in ("A1", "A2", "B1", "B2")]
        if sorted(v for part in labelled for v in part) != sorted(chosen):
            problems.append("classes A1 A2 B1 B2 do not make up the set")
        if 4 * int(r["ell"]) != len(chosen):
            problems.append("set size is not 4*ell")
    elif outcome == "MatchingSizeMismatch":
        if len(m_pairs) != nu_g:
            problems.append(f"auto matching has {len(m_pairs)} edges, maximum is {nu_g}")
        if nu_without(m_pairs) >= len(m_pairs):
            problems.append("G - M has a matching as large as M")
    a = parse_output(approx_out)
    chosen = vertices_field(a.get("set", ""))
    problems += [f"approx set: {p}" for p in dissociation_problems(n, es, chosen)]
    size = int(a.get("set_size", -1))
    if size != len(chosen) or size != int(a.get("alpha_g_minus_m", -2)):
        problems.append("approx set_size, set and alpha_g_minus_m disagree")
    if size < max(color.count(0), color.count(1)):
        problems.append(f"approx set of {size} is below the larger bipartition side")
    am = pairs_field(a.get("matching", ""))
    problems += [f"approx matching: {p}" for p in matching_problems(es, am, False)]
    if len(am) != nu_g:
        problems.append(f"approx matching has {len(am)} edges, maximum is {nu_g}")
    elif size != n - nu_without(am):
        problems.append(f"approx set of {size} is not alpha(G - M) = {n - nu_without(am)}")
    return problems
