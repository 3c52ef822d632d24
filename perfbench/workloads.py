"""The four benchmark workloads: input pools, seeded schedules and ops.

Every workload draws its inputs from a finite pool that is generated from
``POOL_SEED`` alone, so that ``expected.json`` can pin the answer of every
item in it.  The run seed only chooses which pool items a run uses and in
which order.  A schedule is a list of blocks; a block is a short list of
ops whose cost mix is the same in every block position, so a run that
stops after any whole block measures the same kind of load whatever the
seed.

An op is a ``(key, call, render)`` triple: ``call()`` is the one kernel
call that is timed, ``render(result)`` turns its result into the answer
string that is compared with ``expected.json`` outside the timed region.

This module imports the kernel lazily, so run.py can import it without
paying for ``dilcalc``.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple

POOL_SEED = 20241217
WORKLOADS = ("functor-sums", "element-oracles", "collapse-fuzz", "cli-scenario")


class Op(NamedTuple):
    key: str
    call: Callable[[], object]
    render: Callable[[object], str]


def refusal(exc: BaseException) -> str:
    return f"refused:{type(exc).__name__}"


# ---------------------------------------------------------------------------
# functor-sums: long sums inside the epsilon_0 fragment

# A spine is ten shuffled chunks of the same 20 summands, so any two
# prefixes of 20 or more summands hold nearly the same mix and blocks cost
# about the same whatever spine the seed picks.  The items of one spine are
# prefixes of each other, so psi and otp of a longer one reuse the module
# caches that the shorter ones filled.
FS_CHUNK = (("Id", 5), ("1", 3), ("Const(3)", 3), ("Const(w)", 3), ("Const(w^2)", 3),
            ("Id*w", 3))
FS_CHUNKS = 10
FS_GAMMAS = ("0", "1", "w", "w+1", "w*2", "w^2")
# Every size gets all four ops; five close sizes give the latency
# distribution a dense middle, so the median op falls inside one cluster of
# similar ops whatever the seed.  Each spine adds one J' of its first 100
# summands, the costliest op, which makes up 1 op in 21: the tail
# percentile then lands mid-way through that class instead of on the few
# spines where J' costs 2x the usual.  Sizes up to 200 are covered by the
# scaling series of the traced run.
FS_LADDER = (30, 35, 40, 45, 50)
FS_TOP = (100, "jprime")
FS_SPINES_PER_GAMMA = 12
FS_OPS = ("j", "jprime", "psi", "otp")


class Track(NamedTuple):
    gamma: str
    index: int
    spine: tuple


def fs_tracks() -> list:
    """The pool: one spine per (gamma, index)."""
    rng = random.Random(POOL_SEED)
    tracks = []
    for gamma in FS_GAMMAS:
        for index in range(FS_SPINES_PER_GAMMA):
            spine = []
            for _ in range(FS_CHUNKS):
                chunk = [s for s, count in FS_CHUNK for _ in range(count)]
                rng.shuffle(chunk)
                spine += chunk
            tracks.append(Track(gamma, index, tuple(spine)))
    return tracks


def fs_parts(track: Track, n: int, op: str) -> list:
    """Summands of the item; omega[Id] is inserted once, only for J and J'.

    psi refuses on any omega[...] summand, so its items stay plain.  The
    insertion point is the middle of the sum, because J's cost depends on
    it and a seeded point would make the cost depend on the seed.
    """
    parts = list(track.spine[:n])
    if op in ("j", "jprime"):
        parts.insert(n // 2, "omega[Id]")
    return parts


def fs_key(track: Track, n: int, op: str) -> str:
    return f"fs/{track.gamma}/{track.index}/{n}/{op}"


def fs_schedule(seed: int) -> list:
    """Rounds of tracks, one per gamma in a fixed order; spines are seeded."""
    rng = random.Random(seed)
    by_gamma = {g: [t for t in fs_tracks() if t.gamma == g] for g in FS_GAMMAS}
    for g in FS_GAMMAS:
        rng.shuffle(by_gamma[g])
    return [[by_gamma[g][r] for g in FS_GAMMAS] for r in range(FS_SPINES_PER_GAMMA)]


def fs_ops(track: Track, atoms: dict, kernel) -> list:
    gamma = kernel.parse_ord(track.gamma)
    calls = {
        "j": lambda d: lambda: kernel.j_eval(d, gamma).value,
        "jprime": lambda d: lambda: kernel.jprime_eval(d, gamma).value,
        "psi": lambda d: lambda: kernel.psi_clause_otp(d, gamma),
        "otp": lambda d: lambda: kernel.otp_symbolic(d, gamma),
    }
    items = [(n, op) for n in FS_LADDER for op in FS_OPS] + [FS_TOP]
    ops = []
    for n, op in items:
        d = kernel.mk_sum_all([atoms[s] for s in fs_parts(track, n, op)])
        ops.append(Op(fs_key(track, n, op), calls[op](d), kernel.ord_str))
    return ops


def functor_sums(seed: int) -> list:
    kernel = Kernel()
    atoms = {s: kernel.parse_dil(s) for s, _ in FS_CHUNK}
    atoms["omega[Id]"] = kernel.parse_dil("omega[Id]")
    # a block is a whole round, so every block holds the same gamma mix
    return [[op for t in round_ for op in fs_ops(t, atoms, kernel)]
            for round_ in fs_schedule(seed)]


# ---------------------------------------------------------------------------
# element-oracles: brute-force trace relations, element order, translations

EO_ATOMS = ("Id", "omega_head(0;Id)", "omega_head(Id;Id)",
            "omega_head(1;omega_head(0;Id))")
EO_TRACE_BUDGET = dict(const_cap=3, copies=2, cnf_len=2, cnf_mult=2, grid=3)
# three connected components, so every ll relation occurs
EO_SUM = "Id+omega_head(0;Id)+Id"
EO_EXPRS = ("1", "Const(3)", "Const(w)", "Const(w^2)", "Id", "Id+1", "1+Id",
            "Id+Const(w)", "Id*2", "Id*w", "omega[Id]", "omega[Id+1]",
            "omega[Id*2]", "Const(w)+Id", "omega[Id]+Id")
EO_PREFIX = 24
EO_SHIFTS = ("1", "w")
EO_POOL_SIZE = 300
EO_BLOCKS = 600
# ops of each kind per block; one arity-4 index query sets the block cost,
# and the ten translations put the median op inside one cluster
EO_BLOCK = (("ii4", 1), ("ii3", 2), ("ii12", 3), ("ll", 6), ("cmp", 6),
            ("emb", 6), ("coh", 10))


class EoData:
    """Kernel objects behind the element-oracles pool (built once per run)."""

    def __init__(self, kernel):
        k = self.kernel = kernel
        budget = k.EnumBudget(**EO_TRACE_BUDGET)
        self.atoms = [k.parse_dil(s) for s in EO_ATOMS]
        self.terms = [
            [t for t, arity in k.enum_trace_terms(a, 4, budget) if arity > 0]
            for a in self.atoms
        ]
        self.arity = [[len(k.support_of(a, t)) for t in ts]
                      for a, ts in zip(self.atoms, self.terms)]
        self.sum = k.parse_dil(EO_SUM)
        self.sum_terms = [t for t, _ in k.enum_trace_terms(self.sum, 2, budget)]
        self.exprs = [k.parse_dil(s) for s in EO_EXPRS]
        self.elems = [k.prefix_elements(d, 3, EO_PREFIX) for d in self.exprs]
        self.embeddings = [dict(enumerate(c)) for c in itertools.combinations(range(5), 3)]
        self.shift_src = {}
        self.shift_dst = {}
        for ei, d in enumerate(self.exprs):
            for gs in EO_SHIFTS:
                g = k.parse_ord(gs)
                self.shift_src[ei, gs] = list(
                    itertools.islice(k.ambient_stream(d, range(2), g), EO_PREFIX))
                self.shift_dst[ei, gs] = k.mk_shift(d, g)
        self.prefix_src = {}
        for ei, d in enumerate(self.exprs):
            dec = k.decompose(d)
            if dec.kind == "succ":
                self.prefix_src[ei] = k.prefix_elements(dec.prefix, 2, EO_PREFIX)


def eo_pool(data: EoData) -> dict:
    """Item keys by op kind; sampled pools are drawn from POOL_SEED."""
    rng = random.Random(POOL_SEED)
    pool = {"ii4": [], "ii3": [], "ii12": []}
    for ai, arities in enumerate(data.arity):
        for ti, arity in enumerate(arities):
            kind = "ii4" if arity == 4 else "ii3" if arity == 3 else "ii12"
            pool[kind].append(f"eo/ii/{ai}/{ti}")
    ll = [f"eo/ll/s/{i}/{j}" for i in range(len(data.sum_terms))
          for j in range(len(data.sum_terms))]
    while len(ll) < EO_POOL_SIZE:
        ai = rng.randrange(len(data.atoms))
        small = [ti for ti, a in enumerate(data.arity[ai]) if a <= 3]
        ll.append(f"eo/ll/{ai}/{rng.choice(small)}/{rng.choice(small)}")
    pool["ll"] = ll
    rich = [ei for ei, es in enumerate(data.elems) if len(es) >= 3]
    cmp, emb = [], []
    for _ in range(EO_POOL_SIZE):
        ei = rng.choice(rich)
        i, j, k = rng.sample(range(len(data.elems[ei])), 3)
        cmp.append(f"eo/cmp/{ei}/{i}/{j}/{k}")
        ei = rng.randrange(len(data.exprs))
        emb.append(f"eo/emb/{ei}/{rng.randrange(len(data.elems[ei]))}/"
                   f"{rng.randrange(len(data.embeddings))}")
    pool["cmp"], pool["emb"] = cmp, emb
    coh = [f"eo/shift/{ei}/{gs}/{i}" for (ei, gs), src in data.shift_src.items()
           for i in range(len(src))]
    coh += [f"eo/prefix/{ei}/{i}" for ei, src in data.prefix_src.items()
            for i in range(len(src))]
    pool["coh"] = coh
    return pool


def eo_op(data: EoData, key: str) -> Op:
    k = data.kernel
    parts = key.split("/")
    kind, args = parts[1], parts[2:]
    if kind == "ii":
        atom = data.atoms[int(args[0])]
        t = data.terms[int(args[0])][int(args[1])]
        return Op(key, lambda: k.important_index(atom, t), str)
    if kind == "ll":
        if args[0] == "s":
            d, ts = data.sum, data.sum_terms
        else:
            d, ts = data.atoms[int(args[0])], data.terms[int(args[0])]
        t1, t2 = ts[int(args[1])], ts[int(args[2])]
        return Op(key, lambda: k.ll_relation(d, t1, t2), str)
    if kind == "cmp":
        ei = int(args[0])
        d = data.exprs[ei]
        x, y, z = (data.elems[ei][int(a)] for a in args[1:])
        return Op(key, lambda: (k.compare_elements(d, x, y), k.compare_elements(d, y, z),
                                k.compare_elements(d, x, z)),
                  lambda r: ",".join(map(str, r)))
    if kind == "emb":
        ei = int(args[0])
        d, e = data.exprs[ei], data.elems[ei][int(args[1])]
        f = data.embeddings[int(args[2])]
        return Op(key, lambda: k.apply_embedding(d, e, f),
                  lambda r: f"{k.element_str(d, r)} supp={k.support_of(d, r)}")
    if kind == "shift":
        ei, gs = int(args[0]), args[1]
        d, g = data.exprs[ei], k.parse_ord(gs)
        e = data.shift_src[ei, gs][int(args[2])]
        dst = data.shift_dst[ei, gs]
        return Op(key, lambda: k.shift_translate(d, g, e), lambda r: k.element_str(dst, r))
    if kind == "prefix":
        ei = int(args[0])
        d, e = data.exprs[ei], data.prefix_src[ei][int(args[1])]
        return Op(key, lambda: k.prefix_inject(d, e), lambda r: k.element_str(d, r))
    raise ValueError(f"unknown element-oracles item {key!r}")


def element_oracles(seed: int) -> list:
    data = EoData(Kernel())
    pool = eo_pool(data)
    rng = random.Random(seed)
    blocks = []
    for _ in range(EO_BLOCKS):
        keys = [rng.choice(pool[kind]) for kind, count in EO_BLOCK for _ in range(count)]
        rng.shuffle(keys)
        blocks.append([eo_op(data, key) for key in keys])
    return blocks


# ---------------------------------------------------------------------------
# collapse-fuzz: seeded descent search and term enumeration

CF_ORDERS = (("omega[Id]", "0"), ("Id", "w"), ("Id*2", "w"), ("Const(w)+Id", "w^2"))
CF_ENUM_ORDERS = (("omega[Id]+Id", "1"), ("omega[Id]", "0"), ("Id*2", "w"),
                  ("Const(w)+Id", "w^2"))
CF_TRIALS = 20
CF_DEPTH = 30
CF_ENUM_DEPTH = 2
CF_FIXTURE_TRIALS = 200
CF_BLOCKS = 400


def search_answer(res) -> str:
    return f"{res.summary} trials={res.trials} chain={len(res.chain)}"


def enum_answer(order, terms, term_str) -> str:
    text = "\n".join(term_str(order, t) for t in terms)
    return f"{len(terms)} terms sha1={hashlib.sha1(text.encode()).hexdigest()[:16]}"


def collapse_fuzz(seed: int) -> list:
    k = Kernel()
    orders = [k.PsiOrder(k.parse_dil(d), k.parse_ord(g)) for d, g in CF_ORDERS]
    enum_orders = [k.PsiOrder(k.parse_dil(d), k.parse_ord(g)) for d, g in CF_ENUM_ORDERS]
    rng = random.Random(seed)

    def chain(i, op_seed):
        handle = k.PsiSearchHandle(orders[i])
        return Op(f"cf/chain/{i}",
                  lambda: k.chain_search(handle, CF_TRIALS, CF_DEPTH, op_seed),
                  search_answer)

    def enum(i):
        order = enum_orders[i]
        return Op(f"cf/enum/{i}", lambda: k.psi_enum(order, CF_ENUM_DEPTH),
                  lambda terms: enum_answer(order, terms, k.term_str))

    def fixture(op_seed):
        return Op("cf/fixture",
                  lambda: k.chain_search(k.IllFoundedFixture(), CF_FIXTURE_TRIALS,
                                         CF_DEPTH, op_seed),
                  search_answer)

    blocks = []
    for b in range(CF_BLOCKS):
        ops = [chain(i, rng.randrange(2**31)) for i in range(len(orders)) for _ in range(2)]
        ops += [enum(b % len(enum_orders)), fixture(rng.randrange(2**31))]
        rng.shuffle(ops)
        blocks.append(ops)
    return blocks


# ---------------------------------------------------------------------------
# cli-scenario: one interpreter per command

# the lines of scripts/lemma_suite.commands, pinned here so the benchmark
# does not change when the scenario file does
CLI_SCENARIO = (
    "jeval 0 --gamma w",
    "jeval 1 --gamma w",
    "jeval Id --gamma w --audit",
    "jeval Const(w) --gamma w",
    "jprime Id --gamma w",
    "jplus 0 --gamma w",
    "jplus 1 --gamma w",
    "jeval omega[Id] --gamma w",
    "classify omega[Id] --format json",
    "decompose omega[Id*2]",
    "sep Id+Id --gamma w",
    "enum omega[Id] --x 1 --prefix 5",
    "psi-otp Id --gamma w",
    "psi-enum Const(3) --gamma 0",
    "compare w^2+1 w*3",
    "check j-exact",
    "check psi-values",
)
CLI_EXPRS = ("0", "1", "Id", "Id+1", "1+Id", "Id*2", "Id*3", "Const(w)",
             "Const(w)+Id", "omega[Id]", "Id*w", "omega[Id*2]")
CLI_OMEGA_TYPE = ("Id", "1+Id", "Id*2", "Const(w)+Id", "omega[Id]", "omega[Id*2]")
CLI_GAMMAS = ("0", "1", "w", "w+1", "w*2", "w^2")
CLI_ORDINALS = ("0", "3", "w", "w+1", "w*2", "w^2", "w^2+1", "w^w", "w^(w+1)")
CLI_POOL_SIZE = 120
CLI_SEEDED_PER_BLOCK = 8
CLI_BLOCKS = 40


def cli_pool() -> list:
    """Seeded verb invocations drawn from POOL_SEED."""
    rng = random.Random(POOL_SEED)
    fmt = lambda: " --format json" if rng.random() < 0.3 else ""
    makers = [
        lambda: f"{rng.choice(['jeval', 'jprime'])} {rng.choice(CLI_EXPRS)} "
                f"--gamma {rng.choice(CLI_GAMMAS)}{fmt()}",
        lambda: f"psi-otp {rng.choice(CLI_EXPRS[:9])} --gamma {rng.choice(CLI_GAMMAS)}{fmt()}",
        lambda: f"otp {rng.choice(CLI_EXPRS)} --arg {rng.choice(CLI_GAMMAS)}{fmt()}",
        lambda: f"classify {rng.choice(CLI_EXPRS)}{fmt()}",
        lambda: f"decompose {rng.choice(CLI_EXPRS)}{fmt()}",
        lambda: f"sep {rng.choice(CLI_OMEGA_TYPE)} --gamma {rng.choice(CLI_GAMMAS)}{fmt()}",
        lambda: f"enum {rng.choice(CLI_EXPRS)} --x {rng.randint(1, 2)} "
                f"--prefix {rng.choice([5, 10, 20])}{fmt()}",
        lambda: f"compare {rng.choice(CLI_ORDINALS)} {rng.choice(CLI_ORDINALS)}{fmt()}",
        lambda: f"psi-enum {rng.choice(['Id', 'Id*2', 'Const(3)', 'omega[Id]'])} "
                f"--gamma {rng.choice(['0', '1', 'w'])} --depth 2 --prefix 10{fmt()}",
    ]
    lines = []
    while len(lines) < CLI_POOL_SIZE:
        line = rng.choice(makers)()
        if line not in lines:
            lines.append(line)
    return lines


def cli_key(line: str) -> str:
    return "cli/" + line


def cli_schedule(seed: int) -> list:
    """Blocks of command lines: the whole scenario plus seeded invocations."""
    rng = random.Random(seed)
    pool = cli_pool()
    blocks = []
    for _ in range(CLI_BLOCKS):
        lines = list(CLI_SCENARIO) + rng.sample(pool, CLI_SEEDED_PER_BLOCK)
        rng.shuffle(lines)
        blocks.append(lines)
    return blocks


def cli_answer(code: int, stdout: str) -> str:
    return f"exit={code}\n{stdout}"


def cli_in_process(line: str):
    """Run one command through ``cli.main`` with its output captured."""
    from dilcalc import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(shlex.split(line))
    return code, out.getvalue()


def cli_op(line: str) -> Op:
    return Op(cli_key(line), lambda: cli_in_process(line), lambda r: cli_answer(*r))


def cli_scenario(seed: int) -> list:
    """In-process ops for the traced run; timed runs start a process per line."""
    return [[cli_op(line) for line in block] for block in cli_schedule(seed)]


# ---------------------------------------------------------------------------
# shared series: scaling points and the layer probe

SERIES_N = (25, 50, 100, 200)
SERIES_FNS = ("j", "jprime", "psi")
SERIES_ARITY_REPEATS = 3
CLI_DISPATCH = tuple(line for line in CLI_SCENARIO if not line.startswith("check"))


def series_op(fn: str, n: int) -> Op:
    """J, J' or psi of Id*n at w, the closed-form family of the scaling curve."""
    k = Kernel()
    d, w = k.parse_dil(f"Id*{n}"), k.parse_ord("w")
    call = {
        "j": lambda: k.j_eval(d, w).value,
        "jprime": lambda: k.jprime_eval(d, w).value,
        "psi": lambda: k.psi_clause_otp(d, w),
    }[fn]
    return Op(f"series/{fn}/{n}", call, k.ord_str)


def arity_ops() -> list:
    """One important_index query per arity, on the first term of that arity."""
    data = EoData(Kernel())
    ops = []
    for arity in (1, 2, 3, 4):
        ti = data.arity[3].index(arity)
        ops.append(eo_op(data, f"eo/ii/3/{ti}"))
    return ops


def probe_ops() -> list:
    """A fixed, seed-free call into every layer; ends every traced run."""
    k = Kernel()
    ops = [series_op(fn, 25) for fn in SERIES_FNS]
    d, w = k.parse_dil("Id*25"), k.parse_ord("w")
    ops.append(Op("probe/otp", lambda: k.otp_symbolic(d, w), k.ord_str))
    data = EoData(k)
    pool = eo_pool(data)
    ops += [eo_op(data, key) for key in
            (pool["ii3"][0], pool["ll"][0], pool["cmp"][0], pool["emb"][0], pool["coh"][0])]
    order = k.PsiOrder(k.parse_dil("Id"), w)
    ops.append(Op("cf/chain/1", lambda: k.chain_search(
        k.PsiSearchHandle(order), CF_TRIALS, CF_DEPTH, 0), search_answer))
    small = k.PsiOrder(k.parse_dil("Id*2"), w)
    ops.append(Op("cf/enum/2", lambda: k.psi_enum(small, CF_ENUM_DEPTH),
                  lambda terms: enum_answer(small, terms, k.term_str)))
    ops += [cli_op(line) for line in CLI_DISPATCH[:3]]
    return ops


# The tail is this fixed percentile of a run's op latencies, the highest
# that leaves at least ten ops beyond it in a run of 20 seconds on a 2-CPU
# virtual machine, so that it does not move with the number of ops run.
# cli-scenario runs three blocks of 25 commands (75 ops) there, four on a
# faster host.
TAIL_PERCENTILE = {"functor-sums": 98.0, "element-oracles": 99.75, "collapse-fuzz": 98.5,
                   "cli-scenario": 85.0}
# Peak memory is read after this many blocks, which every run completes, so
# a faster kernel is not charged for the cache entries of the extra blocks
# it gets through.
RSS_BLOCKS = {"functor-sums": 2, "element-oracles": 60, "collapse-fuzz": 20}

BUILDERS = {
    "functor-sums": functor_sums,
    "element-oracles": element_oracles,
    "collapse-fuzz": collapse_fuzz,
    "cli-scenario": cli_scenario,
}


class Kernel:
    """The public kernel functions the benchmark calls, imported on demand.

    Names are looked up on the kernel modules at call time, so a traced run
    that rebinds them sees every call.
    """

    _MODULES = ("ordinal", "expr", "analysis", "semantics", "coherence",
                "jfunctor", "psi")

    def __init__(self):
        import importlib

        self._mods = [importlib.import_module(f"dilcalc.{m}") for m in self._MODULES]

    def __getattr__(self, name):
        for mod in self.__dict__["_mods"]:
            if name in vars(mod):
                return getattr(mod, name)
        raise AttributeError(name)
