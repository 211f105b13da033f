"""Independent oracles for the test suite.

Everything here re-implements expression semantics from scratch so the
library's evaluator, simplifier, and CNF pipeline can be checked against
code that shares none of their logic.  The bit-plane evaluator computes
an expression's value under *every* assignment of its support at once:
each output bit becomes one big integer whose k-th bit is that output bit
under assignment number k.  That makes exhaustive equivalence and
satisfiability checks over <= ~16 support bits cheap.
"""

from __future__ import annotations

import random

from dctforge import expr as ex


def naive_eval(e: ex.Expr, env: dict) -> int:
    """Plain recursive evaluator, deliberately separate from the library's."""
    def rec(n: ex.Expr) -> int:
        m = (1 << n.width) - 1
        op = n.op
        if op == "const":
            return n.aux[0]
        if op in ("ref", "var"):
            return env[(op,) + n.aux]
        a = [rec(x) for x in n.args]
        if op == "not":
            return ~a[0] & m
        if op == "neg":
            return -a[0] & m
        if op == "redor":
            return 1 if a[0] else 0
        if op == "redand":
            return 1 if a[0] == (1 << n.args[0].width) - 1 else 0
        if op == "and":
            return a[0] & a[1]
        if op == "or":
            return a[0] | a[1]
        if op == "xor":
            return a[0] ^ a[1]
        if op == "add":
            return (a[0] + a[1]) & m
        if op == "sub":
            return (a[0] - a[1]) & m
        if op == "eq":
            return 1 if a[0] == a[1] else 0
        if op == "ne":
            return 1 if a[0] != a[1] else 0
        if op == "ult":
            return 1 if a[0] < a[1] else 0
        if op == "shl":
            return (a[0] << a[1]) & m if a[1] < n.width else 0
        if op == "mux":
            return a[1] if a[0] else a[2]
        if op == "case":
            for i, key in enumerate(n.aux):
                if a[0] == key:
                    return a[1 + i]
            return a[-1]
        if op == "slice":
            lo, hi = n.aux
            return (a[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
        if op == "concat":
            acc = 0
            for child, v in zip(n.args, a):
                acc = (acc << child.width) | v
            return acc
        if op == "zext":
            return a[0]
        raise AssertionError(op)
    return rec(e)


class BitPlanes:
    """Evaluate expressions over every assignment of a fixed support."""

    def __init__(self, leaves: list[ex.Expr]):
        self.leaves = leaves
        self.offsets: dict[tuple, int] = {}
        off = 0
        for leaf in leaves:
            self.offsets[(leaf.op,) + leaf.aux] = off
            off += leaf.width
        self.total_bits = off
        self.count = 1 << off
        self.ones = (1 << self.count) - 1
        self._plane_cache: dict[int, int] = {}

    def _var_plane(self, position: int) -> int:
        """Plane whose k-th bit is bit `position` of assignment index k."""
        if position in self._plane_cache:
            return self._plane_cache[position]
        half = 1 << position
        unit = ((1 << half) - 1) << half  # 2^p zeros then 2^p ones
        span = half * 2
        x = unit
        while span < self.count:
            x |= x << span
            span *= 2
        x &= self.ones
        self._plane_cache[position] = x
        return x

    def assignment_env(self, k: int) -> dict:
        env = {}
        for leaf in self.leaves:
            off = self.offsets[(leaf.op,) + leaf.aux]
            env[(leaf.op,) + leaf.aux] = (k >> off) & ((1 << leaf.width) - 1)
        return env

    def planes(self, e: ex.Expr) -> list[int]:
        memo: dict[ex.Expr, list[int]] = {}

        def mux(c: int, t: list[int], f: list[int]) -> list[int]:
            nc = ~c & self.ones
            return [(tp & c) | (fp & nc) for tp, fp in zip(t, f)]

        def adder(a: list[int], b: list[int], carry: int) -> list[int]:
            out = []
            for ap, bp in zip(a, b):
                t = ap ^ bp
                out.append(t ^ carry)
                carry = (ap & bp) | (carry & t)
            return out

        def eq_planes(a: list[int], b: list[int]) -> int:
            acc = self.ones
            for ap, bp in zip(a, b):
                acc &= ~(ap ^ bp) & self.ones
            return acc

        def rec(n: ex.Expr) -> list[int]:
            if n in memo:
                return memo[n]
            op = n.op
            if op == "const":
                v = n.aux[0]
                r = [self.ones if (v >> i) & 1 else 0 for i in range(n.width)]
            elif op in ("ref", "var"):
                off = self.offsets[(n.op,) + n.aux]
                r = [self._var_plane(off + i) for i in range(n.width)]
            elif op == "not":
                r = [~p & self.ones for p in rec(n.args[0])]
            elif op == "neg":
                a = rec(n.args[0])
                r = adder([0] * n.width, [~p & self.ones for p in a], self.ones)
            elif op == "redor":
                acc = 0
                for p in rec(n.args[0]):
                    acc |= p
                r = [acc]
            elif op == "redand":
                acc = self.ones
                for p in rec(n.args[0]):
                    acc &= p
                r = [acc]
            elif op in ("and", "or", "xor"):
                a, b = rec(n.args[0]), rec(n.args[1])
                if op == "and":
                    r = [x & y for x, y in zip(a, b)]
                elif op == "or":
                    r = [x | y for x, y in zip(a, b)]
                else:
                    r = [x ^ y for x, y in zip(a, b)]
            elif op == "add":
                r = adder(rec(n.args[0]), rec(n.args[1]), 0)
            elif op == "sub":
                b = [~p & self.ones for p in rec(n.args[1])]
                r = adder(rec(n.args[0]), b, self.ones)
            elif op == "eq":
                r = [eq_planes(rec(n.args[0]), rec(n.args[1]))]
            elif op == "ne":
                r = [~eq_planes(rec(n.args[0]), rec(n.args[1])) & self.ones]
            elif op == "ult":
                borrow = 0
                for ap, bp in zip(rec(n.args[0]), rec(n.args[1])):
                    na = ~ap & self.ones
                    borrow = (na & bp) | (na & borrow) | (bp & borrow)
                r = [borrow]
            elif op == "shl":
                cur = list(rec(n.args[0]))
                for k, sp in enumerate(rec(n.args[1])):
                    amount = 1 << k
                    if amount >= n.width:
                        shifted = [0] * n.width
                    else:
                        shifted = [0] * amount + cur[:n.width - amount]
                    cur = mux(sp, shifted, cur)
                r = cur
            elif op == "mux":
                r = mux(rec(n.args[0])[0], rec(n.args[1]), rec(n.args[2]))
            elif op == "case":
                scrut = rec(n.args[0])
                r = list(rec(n.args[-1]))
                for key, arm in reversed(list(zip(n.aux, n.args[1:-1]))):
                    sel = self.ones
                    for i, sp in enumerate(scrut):
                        sel &= sp if (key >> i) & 1 else ~sp & self.ones
                    r = mux(sel, rec(arm), r)
            elif op == "slice":
                lo, hi = n.aux
                r = rec(n.args[0])[lo:hi + 1]
            elif op == "concat":
                r = []
                for child in reversed(n.args):
                    r.extend(rec(child))
            elif op == "zext":
                r = rec(n.args[0]) + [0] * (n.width - n.args[0].width)
            else:
                raise AssertionError(op)
            memo[n] = r
            return r

        return rec(e)

    def truth_plane(self, conjuncts) -> int:
        acc = self.ones
        for c in conjuncts:
            acc &= self.planes(c)[0]
        return acc

    def value_set(self, e: ex.Expr, conjuncts=()) -> set[int]:
        sat = self.truth_plane(conjuncts)
        planes = self.planes(e)
        out = set()
        m = sat
        while m:
            k = (m & -m).bit_length() - 1
            m &= m - 1
            v = 0
            for i, p in enumerate(planes):
                if (p >> k) & 1:
                    v |= 1 << i
            out.add(v)
        return out


def support_leaves(*roots: ex.Expr) -> list[ex.Expr]:
    seen = []
    keys = set()
    for root in roots:
        for n in ex.postorder([root]):
            if n.op in ("ref", "var"):
                key = (n.op,) + n.aux
                if key not in keys:
                    keys.add(key)
                    seen.append(n)
    seen.sort(key=lambda n: (n.op,) + n.aux)
    return seen


class ExprGen:
    """Seeded random expression generator with bounded support.  Generators
    with different prefixes draw on disjoint variables."""

    def __init__(self, rng: random.Random, max_width: int = 8,
                 n_vars: int = 3, var_width: int = 3, prefix: str = "v"):
        self.rng = rng
        self.max_width = max_width
        self.vars = [ex.var(f"{prefix}{i}", var_width, 0)
                     for i in range(n_vars)]

    def leaf(self, width: int) -> ex.Expr:
        if self.rng.random() < 0.45:
            fits = [v for v in self.vars if v.width == width]
            if fits:
                return self.rng.choice(fits)
            v = self.rng.choice(self.vars)
            if v.width < width:
                return ex.zext(v, width)
            return ex.slice_(v, 0, width - 1)
        return ex.const(width, self.rng.randrange(1 << width))

    def gen(self, depth: int, width: int | None = None) -> ex.Expr:
        rng = self.rng
        if width is None:
            width = rng.choice([1, 2, 3, self.vars[0].width])
        if depth <= 0:
            return self.leaf(width)
        op = rng.choice(["binary", "not", "neg", "mux", "cmp", "red",
                         "slice", "concat", "case", "shl", "zext"])
        if op == "binary":
            kind = rng.choice([ex.and_, ex.or_, ex.xor, ex.add, ex.sub])
            return kind(self.gen(depth - 1, width), self.gen(depth - 1, width))
        if op == "not":
            return ex.not_(self.gen(depth - 1, width))
        if op == "neg":
            return ex.neg(self.gen(depth - 1, width))
        if op == "mux":
            return ex.mux(self.gen(depth - 1, 1),
                          self.gen(depth - 1, width),
                          self.gen(depth - 1, width))
        if op == "cmp":
            if width != 1:
                return self.leaf(width)
            w = rng.choice([1, 2, 3])
            kind = rng.choice([ex.eq, ex.ne, ex.ult])
            return kind(self.gen(depth - 1, w), self.gen(depth - 1, w))
        if op == "red":
            if width != 1:
                return self.leaf(width)
            kind = rng.choice([ex.redor, ex.redand])
            return kind(self.gen(depth - 1, rng.choice([2, 3])))
        if op == "slice":
            inner_w = min(self.max_width, width + rng.randrange(0, 3))
            lo = rng.randrange(0, inner_w - width + 1)
            return ex.slice_(self.gen(depth - 1, inner_w), lo, lo + width - 1)
        if op == "concat" and width >= 2:
            w1 = rng.randrange(1, width)
            return ex.concat(self.gen(depth - 1, width - w1),
                             self.gen(depth - 1, w1))
        if op == "case":
            w = rng.choice([2, 3])
            n_arms = rng.randrange(1, 1 << w)
            keys = rng.sample(range(1 << w), n_arms)
            arms = [(k, self.gen(depth - 1, width)) for k in sorted(keys)]
            return ex.case(self.gen(depth - 1, w), arms,
                           self.gen(depth - 1, width))
        if op == "shl":
            return ex.shl(self.gen(depth - 1, width), self.gen(depth - 1, 2))
        if op == "zext" and width >= 2:
            w1 = rng.randrange(1, width)
            return ex.zext(self.gen(depth - 1, w1), width)
        return self.leaf(width)


def full_replace_simplify(order, repl):
    """expr.replace_simplify without the eid bound: `order` must hold
    every node of the roots, children first, since each child is read
    from the walk's own results (a node left out raises KeyError)."""
    out = {}
    for node in order:
        result = repl.get(node)
        if result is None:
            args = tuple(out[a] for a in node.args)
            if all(a is b for a, b in zip(args, node.args)):
                result = node
            else:
                result = ex._simp_node(node.op, node.width, args, node.aux)
                result.simp = result
        out[node] = result
    return out


def full_postorder(roots, lo=0):
    """expr.postorder without the eid bound (lo is ignored): every node of
    roots, each once, children first, in the order expr.postorder with
    lo = 0 gives."""
    seen = set()
    order = []
    stack = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(node.args)
                         if a not in seen)
    return order


def per_net_cycle_exprs(c, s, cfg):
    """engine._cycle_exprs the direct way: one substitute and one
    simplify per net (re-ordering the nets on every call), per register,
    per monitored output and per assumption, with the post-edge nets
    evaluated again for the assumptions."""
    from dctforge.circuit import net_topo_order
    from dctforge.solve import extends
    inputs_env = {name: ex.var(name, w, s.var_epoch) for name, w in c.inputs}
    env = dict(inputs_env)
    env.update(s.regs)
    for name, _, e in net_topo_order(c):
        env[name] = ex.simplify(ex.substitute(e, env))
    next_exprs = {r.name: ex.simplify(ex.substitute(r.next, env))
                  for r in c.registers}
    out_all = c.output_exprs()
    outs = {name: ex.simplify(ex.substitute(out_all[name], env))
            for name in cfg.monitored_outputs}
    if not cfg.assumes:
        return next_exprs, outs, s.pc
    post_env = dict(inputs_env)
    post_env.update(next_exprs)
    for name, _, e in net_topo_order(c):
        post_env[name] = ex.simplify(ex.substitute(e, post_env))
    assumed = tuple(ex.simplify(ex.substitute(a, post_env))
                    for a in cfg.assumes)
    if not extends(s.pc, assumed, cfg.limits):
        return None
    return next_exprs, outs, s.pc + assumed


def pinned_witness(c, spec, pc, cfg):
    """detect._extract_witness the per-variable way: under pc (the source
    StateId already pinned), the smallest value of each input, then of
    each non-spec register, in declaration order, each one pinned before
    the next is minimised.  Returns (inputs, non-spec registers)."""
    from dctforge.solve import min_value
    inputs, registers = {}, {}
    names = ([(name, w, 0, inputs) for name, w in c.inputs]
             + [(r.name, r.width, -1, registers) for r in c.registers
                if r.name not in spec.registers])
    for name, w, step, out in names:
        v = ex.var(name, w, step)
        out[name] = min_value(v, pc, limits=cfg.limits)
        pc = pc + (ex.eq(v, ex.const(w, out[name])),)
    return inputs, registers


def per_path_explore(c, init, cfg, kind):
    """A worklist exploration with one frontier entry per path: every
    path is stepped, projected and recorded on its own, and each
    path_spawned or path_pruned debug event stands for one path.  With
    Kind.REACH it is the reference that the merging frontier of
    engine.explore is checked against; with Kind.STATES, from the
    symbolic state at depth 1 under BFS, the reference for
    engine.symbolic_step.  Its plan has no concrete kernel, so every
    step it takes is symbolic."""
    from dataclasses import replace as dc_replace
    from dctforge import engine
    from dctforge.engine import Kind, Metadata, Mode
    from dctforge.errors import DctForgeError
    from dctforge.solve import live_conjuncts
    if not init:
        raise DctForgeError("explore needs at least one initial state")
    spec = cfg.state_spec
    plan = engine._build_plan(c, cfg)
    seen = set()
    for s in init:
        seen |= engine.project(s, spec, cfg)
    meta = Metadata(kind=kind, rs=set(seen) if kind is Kind.REACH else set(),
                    trans=set(), rbs=set(), sym_states=[])
    frontier = list(init)
    layer = 0
    last_new_layer = 0
    final_layer_added = cfg.depth == 0 and bool(seen)

    while frontier:
        if cfg.depth is not None and layer >= cfg.depth:
            break
        layer += 1
        step_results = [engine._step(c, st, cfg, plan) for st in frontier]
        meta.paths_explored += len(frontier)
        new_frontier = []
        layer_added = False
        for results in step_results:
            for res in results:
                succ = res.state
                proj = engine.project(succ, spec, cfg)
                if kind is Kind.REACH:
                    meta.rs |= proj
                    for d in sorted(proj):
                        engine._record_behaviors(res, d, cfg, meta.rbs)
                else:
                    for s1 in res.src_vals:
                        for s2 in sorted(proj):
                            meta.trans.add((s1, s2))
                new_ids = proj - seen
                if new_ids:
                    layer_added = True
                if cfg.mode is Mode.BFS_PRUNE and not new_ids:
                    meta.paths_pruned += 1
                    engine._log_event(event="path_pruned", layer=layer,
                                      paths=1, state=sorted(proj))
                    continue
                seen |= proj
                if kind is Kind.REACH:
                    leaves = frozenset().union(
                        *map(ex.leaf_set, succ.regs.values()))
                    succ = dc_replace(succ,
                                      pc=live_conjuncts(succ.pc, leaves))
                new_frontier.append(succ)
                engine._log_event(event="path_spawned", layer=layer, paths=1,
                                  state=sorted(proj),
                                  pc_conjuncts=len(succ.pc))
        frontier = new_frontier
        if layer_added:
            last_new_layer = layer
        if cfg.depth is None and not layer_added:
            break
        if cfg.depth is not None and layer >= cfg.depth:
            final_layer_added = layer_added
            break

    if cfg.depth is None:
        meta.discovered_diameter = last_new_layer
    else:
        meta.depth_converged = not final_layer_added
    if kind is Kind.STATES:
        meta.sym_states = frontier
    return meta


def slice_then_components(leaves, conjuncts):
    """solve._partition in two passes: grow the related slice around
    leaves until no further conjunct shares a leaf with it, then split
    the rest with a union-find over their leaves.  Returns (related,
    rest groups): related in the order of conjuncts, the groups in order
    of their first conjunct with members in that order."""
    wanted = set(leaves)
    taken = [False] * len(conjuncts)
    grown = True
    while grown:
        grown = False
        for i, c in enumerate(conjuncts):
            if not taken[i] and not ex.leaf_set(c).isdisjoint(wanted):
                taken[i] = grown = True
                wanted |= ex.leaf_set(c)
    related = [c for c, t in zip(conjuncts, taken) if t]
    rest = [c for c, t in zip(conjuncts, taken) if not t]

    parent = list(range(len(rest)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner = {}
    for i, c in enumerate(rest):
        for leaf in ex.leaf_set(c):
            j = owner.setdefault(leaf, i)
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i, c in enumerate(rest):
        groups.setdefault(find(i), []).append(c)
    return related, list(groups.values())
