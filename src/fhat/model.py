"""Finite active-hypothesis-testing models.

A model is a finite set of hypotheses, a finite set of experiments, and
for each (hypothesis, experiment) pair a distribution over a finite
observation alphabet.  All distributions for a given experiment must
share the same support, which keeps every log-likelihood ratio finite.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np


ROW_SUM_TOL = 1e-12


class ModelError(ValueError):
    """Raised when a model document fails parsing or validation."""


@dataclass(frozen=True)
class HypothesisModel:
    """Validated model with derived log tables and LLR bound.

    kernel[i, u, y] is the probability of observing y when experiment u
    is performed and hypothesis i is true.  Zeros must be explicit: the
    support is taken to be exactly the strictly positive entries.
    """

    hypotheses: tuple[str, ...]
    experiments: tuple[str, ...]
    observations: tuple[str, ...]
    kernel: np.ndarray          # (M, U, Y)
    prior: np.ndarray           # (M,)
    support: np.ndarray         # (U, Y) bool, shared across hypotheses
    llr_bound: float            # B, in nats
    log_kernel: np.ndarray = field(repr=False, default=None)
    log_prior: np.ndarray = field(repr=False, default=None)
    _support_idx: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # make_model passes the log kernel it took the LLR bound from
        if self.log_kernel is None:
            object.__setattr__(self, "log_kernel", _log_kernel(self.kernel))
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "log_prior", np.log(self.prior))
        object.__setattr__(self, "_support_idx", tuple(map(np.flatnonzero, self.support)))
        for arr in (self.kernel, self.prior, self.support, self.log_kernel, self.log_prior,
                    *self._support_idx):
            arr.setflags(write=False)

    @property
    def num_hypotheses(self) -> int:
        return len(self.hypotheses)

    @property
    def num_experiments(self) -> int:
        return len(self.experiments)

    @property
    def num_observations(self) -> int:
        return len(self.observations)

    def support_indices(self, u: int) -> np.ndarray:
        return self._support_idx[u]

    def alternates(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(self.num_hypotheses) if j != i)


def _log_kernel(kernel: np.ndarray) -> np.ndarray:
    """log kernel, -inf off the support."""
    with np.errstate(divide="ignore"):
        return np.where(kernel > 0, np.log(np.where(kernel > 0, kernel, 1.0)), -np.inf)


def make_model(hypotheses, experiments, observations, kernel,
               prior) -> HypothesisModel:
    """Validate raw arrays and build a HypothesisModel.

    The LLR bound B is the tight maximum |log(p_i^u(y)/p_j^u(y))| over
    the support (1 for a model whose LLRs are all zero).
    """
    kernel = np.array(kernel, dtype=float)
    prior = np.array(prior, dtype=float)
    hypotheses = tuple(str(h) for h in hypotheses)
    experiments = tuple(str(u) for u in experiments)
    observations = tuple(str(y) for y in observations)
    M, U, Y = len(hypotheses), len(experiments), len(observations)
    if M < 2:
        raise ModelError(f"need at least 2 hypotheses, got {M}")
    if U < 1 or Y < 1:
        raise ModelError("need at least one experiment and one observation")
    for what, names in (("hypothesis", hypotheses), ("experiment", experiments),
                        ("observation", observations)):
        if len(set(names)) < len(names):
            dup = next(n for k, n in enumerate(names) if n in names[:k])
            raise ModelError(f"{what} name {dup!r} repeats")
    if kernel.shape != (M, U, Y):
        raise ModelError(f"kernel shape {kernel.shape} does not match (M,U,Y)=({M},{U},{Y})")
    if prior.shape != (M,):
        raise ModelError(f"prior shape {prior.shape} does not match M={M}")
    for name, arr in (("kernel", kernel), ("prior", prior)):
        if not np.all(np.isfinite(arr)):
            bad = ",".join(map(str, np.argwhere(~np.isfinite(arr))[0]))
            raise ModelError(f"non-finite probability at {name}[{bad}]")
    if np.any(kernel < 0):
        bad = np.argwhere(kernel < 0)[0]
        raise ModelError(f"negative probability at kernel[{bad[0]},{bad[1]},{bad[2]}]")

    sums = kernel.sum(axis=2)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        i, u = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        raise ModelError(
            f"kernel row (hypothesis={hypotheses[i]}, experiment={experiments[u]}) "
            f"sums to {float(sums[i, u])!r}, not 1 within {ROW_SUM_TOL}")

    # Common support: strictly positive entries must agree across hypotheses.
    pos = kernel > 0
    support = pos[0]
    for i in range(1, M):
        if not np.array_equal(pos[i], support):
            u = int(np.argwhere((pos[i] != support).any(axis=1))[0][0])
            raise ModelError(
                f"common-support violation under experiment {experiments[u]}: "
                f"hypotheses {hypotheses[0]} and {hypotheses[i]} have different supports")
    if np.any(~support.any(axis=1)):
        u = int(np.argwhere(~support.any(axis=1))[0][0])
        raise ModelError(f"experiment {experiments[u]} has empty support")

    if np.any(prior <= 0):
        i = int(np.argwhere(prior <= 0)[0][0])
        raise ModelError(f"prior lacks full support: "
                         f"prior[{hypotheses[i]}] = {float(prior[i])!r}")
    if abs(prior.sum() - 1.0) > ROW_SUM_TOL:
        raise ModelError(f"prior sums to {float(prior.sum())!r}, not 1 within {ROW_SUM_TOL}")

    logk = _log_kernel(kernel)
    # the largest |log p_i - log p_j| on a symbol is max - min over the
    # hypotheses; rounding is monotone, so also the largest rounded one
    B = max(float(np.ptp(logk[:, u, support[u]], axis=0).max()) for u in range(U))
    if B == 0.0:
        # Totally uninformative model: every positive constant strictly
        # dominates the (all-zero) LLRs; keep the bound usable.
        B = 1.0

    return HypothesisModel(hypotheses, experiments, observations,
                           kernel, prior, support, B, log_kernel=logk)


def _prime_exponents(a: int) -> dict[int, int]:
    """{prime: exponent} of a positive integer, by trial division."""
    out = {}
    d = 2
    while d * d <= a:
        while a % d == 0:
            out[d] = out.get(d, 0) + 1
            a //= d
        d += 1
    if a > 1:
        out[a] = out.get(a, 0) + 1
    return out


def ratio_lattice(model: HypothesisModel, hyps, experiments=None
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """(K, G), the integer likelihood-ratio lattice of the hypotheses
    `hyps` over the experiments `experiments` (default all) and its
    decode, or None when some kernel entry p read is not a decimal of at
    most 6 places, float(a / 10**6) == p for an integer a (no
    tolerance).

    K, int64 (U*Y, r): row u*Y + y holds prime exponents of
    p_j(y|u) / p_hyps[0](y|u) for the j in `hyps`, with only a
    rationally independent set of the (j, prime) columns kept, so the
    dropped ones are rational combinations of the kept ones.  Logs of
    distinct primes are independent over the rationals, so two paths of
    observation counts n on `experiments` have the same likelihood
    ratios among `hyps` exactly when K.T @ n agree.  A rule that only
    ever picks from `experiments` needs no more to key its state.  The
    columns are tried narrowest first, by max(c, 0) - min(c, 0) over
    the rows, to keep the box they span small
    (montecarlo._lattice_box).  Rows off the support or off
    `experiments` are zero; r may be 0.

    G, float (r, M): the log-likelihood ratios of a lattice point P =
    K.T @ n are P @ G, column j holding log(p_j / p_hyps[0]) summed
    over the path for each j in hyps[1:] and the other columns 0.
    A base hyps[0] of None is the constant 1: then K keys, and G
    decodes, the log-likelihoods of the other hypotheses themselves."""
    hyps = list(hyps)
    M, U, Y = model.kernel.shape
    columns = {}     # (j, prime) -> exponent per row u*Y + y
    for u in range(U) if experiments is None else experiments:
        for y in model.support_indices(u):
            nums = []
            for h in hyps:
                p = 1.0 if h is None else float(model.kernel[h, u, y])
                a = round(p * 10**6)
                if a / 10**6 != p:
                    return None
                nums.append(_prime_exponents(a))
            for j, num in zip(hyps[1:], nums[1:]):
                for q in num.keys() | nums[0].keys():
                    e = num.get(q, 0) - nums[0].get(q, 0)
                    if e:
                        columns.setdefault((j, q), [0] * (U * Y))[u * Y + int(y)] = e
    # greedy exact elimination in integers: each basis vector is zero at
    # the pivots of those before it, so reducing a column by them in
    # order leaves it zero at every pivot, and what is left is
    # independent of them.  Each vector carries its expression over the
    # kept columns: v = s * column + sum_k c[k] kept[k].  A column left
    # nonzero is kept; one left zero is sum_k (-c[k] / s) kept[k].
    basis, kept = [], []
    G = [[0.0] * M for _ in columns]
    for (j, q) in sorted(columns, key=lambda k: (max(*columns[k], 0)
                                                 - min(*columns[k], 0), k)):
        v, s, c = columns[(j, q)], 1, [0] * len(columns)
        for piv, b, e in basis:
            if v[piv]:
                f, g = b[piv], v[piv]
                v = [f * x - g * z for x, z in zip(v, b)]
                c = [f * x - g * z for x, z in zip(c, e)]
                s *= f
        if any(v):
            c[len(kept)] = s
            basis.append((next(k for k, x in enumerate(v) if x), v, c))
            G[len(kept)][j] = math.log(q)
            kept.append(columns[(j, q)])
        else:
            for k, x in enumerate(c):
                if x:
                    G[k][j] -= x / s * math.log(q)
    r = len(kept)
    return (np.array(kept, dtype=np.int64).reshape(r, U * Y).T,
            np.array(G[:r]).reshape(r, M))


def kl_divergence(p, q) -> float:
    """KL divergence sum_y p(y) log(p(y)/q(y)) in nats.

    Both arguments must be strictly positive on the same coordinates
    (the common support); anything else is a usage error here.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ModelError("distributions have mismatched supports")
    pos_p, pos_q = p > 0, q > 0
    if not np.array_equal(pos_p, pos_q):
        raise ModelError("distributions have mismatched supports")
    p, q = p[pos_p], q[pos_q]
    return float(np.sum(p * (np.log(p) - np.log(q))))


def pair_table(model: HypothesisModel, i: int, f) -> np.ndarray:
    """T[u, k] = f(u, j, support indices of u) over experiments u and
    alternates j != i, k indexing ascending j: the one per-pair table loop."""
    alts = model.alternates(i)
    T = np.zeros((model.num_experiments, len(alts)))
    for u in range(model.num_experiments):
        idx = model.support_indices(u)
        for k, j in enumerate(alts):
            T[u, k] = f(u, j, idx)
    return T


def kl_matrix(model: HypothesisModel, i: int) -> np.ndarray:
    """Matrix A[u, k] = D(p_i^u || p_j^u) over alternates j != i (column
    order: ascending j)."""
    p = model.kernel
    return pair_table(model, i, lambda u, j, idx: kl_divergence(p[i, u, idx], p[j, u, idx]))


def llr_table(model: HypothesisModel, i: int) -> np.ndarray:
    """Lookup L[k, u, y] = log(p_i^u(y)/p_j^u(y)) for alternates j != i
    (k indexes ascending j); 0 outside the support (callers must not
    step outside the support, which has probability zero anyway)."""
    alts = model.alternates(i)
    L = np.zeros((len(alts), model.num_experiments, model.num_observations))
    with np.errstate(invalid="ignore"):
        for k, j in enumerate(alts):
            diff = model.log_kernel[i] - model.log_kernel[j]
            L[k] = np.where(model.support, diff, 0.0)
    return L


# ---------------------------------------------------------------------------
# Model documents (YAML key-value tree)
# ---------------------------------------------------------------------------

def load_model(document: str) -> HypothesisModel:
    """Parse and validate a model document.

    Layout: `hypotheses`, `experiments`, `observations` are lists of
    names; `prior` is a list of reals; `kernel` maps experiment ->
    hypothesis -> list of probabilities over the observations.
    """
    # imported here: built-in models parse no document, and the import
    # costs a fresh interpreter about 15 ms
    import yaml
    # libyaml's scanner with the pure-Python safe constructor: the same
    # documents as yaml.SafeLoader, parsed several times faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        doc = yaml.load(document, Loader=loader)
    except yaml.YAMLError as e:
        raise ModelError(f"cannot parse model document: {e}") from e
    if not isinstance(doc, dict):
        raise ModelError("model document must be a key-value tree")
    for key in ("hypotheses", "experiments", "observations", "prior", "kernel"):
        if key not in doc:
            raise ModelError(f"model document missing field {key!r}")
    for key in ("hypotheses", "experiments", "observations"):
        if not isinstance(doc[key], list):
            raise ModelError(f"model field {key!r} must be a list of names")
    hyps = [str(h) for h in doc["hypotheses"]]
    exps = [str(u) for u in doc["experiments"]]
    obs = [str(y) for y in doc["observations"]]
    prior = _reals(doc["prior"], "prior")
    M, U, Y = len(hyps), len(exps), len(obs)
    kernel = np.zeros((M, U, Y))
    if not (isinstance(doc["kernel"], dict)
            and all(isinstance(row, dict) for row in doc["kernel"].values())):
        raise ModelError("model field 'kernel' must map each experiment to "
                         "a tree of hypothesis rows")
    ktree = {str(k): {str(h): v for h, v in row.items()}
             for k, row in doc["kernel"].items()}
    # a kernel entry that no listed name reads would vanish from the game
    for uname, row in ktree.items():
        if uname not in exps:
            raise ModelError(f"kernel experiment {uname!r} is not in 'experiments'")
        for hname in row:
            if hname not in hyps:
                raise ModelError(f"kernel[{uname!r}] hypothesis {hname!r} "
                                 f"is not in 'hypotheses'")
    for u, uname in enumerate(exps):
        if uname not in ktree:
            raise ModelError(f"kernel missing experiment {uname!r}")
        row = ktree[uname]
        for i, hname in enumerate(hyps):
            if hname not in row:
                raise ModelError(f"kernel[{uname!r}] missing hypothesis {hname!r}")
            vals = _reals(row[hname], f"kernel[{uname!r}][{hname!r}]")
            if len(vals) != Y:
                raise ModelError(
                    f"kernel[{uname!r}][{hname!r}] has {len(vals)} entries, expected {Y}")
            kernel[i, u, :] = vals
    return make_model(hyps, exps, obs, kernel, prior)


def _reals(node, where: str) -> list[float]:
    """The list of reals a model document holds at `where`."""
    bad = ModelError(f"{where} must be a list of reals")
    if not isinstance(node, list):
        raise bad
    try:
        return [float(v) for v in node]
    except (TypeError, ValueError):
        raise bad from None


def load_model_file(path) -> HypothesisModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


def serialize_model(model: HypothesisModel) -> str:
    """Emit a model document that round-trips bit-exactly.

    Probabilities are written with repr (shortest digits that reload to
    the same float64), so load_model(serialize_model(m)) reproduces the
    kernel and prior exactly.  Names, the kernel's keys too, are YAML
    double-quoted scalars with JSON's escapes and \\U past ASCII (YAML
    reads no surrogate pair), so every name reloads as written.  A
    kernel key whose scalar is longer than the 1024 characters YAML
    allows an implicit key is written in explicit form, ``? "name"``
    with the value after ``:`` on the next line.
    """
    out = io.StringIO()
    def fmt_list(vals):
        return "[" + ", ".join(repr(float(v)) for v in vals) + "]"
    def quoted(name):
        return "".join(c if c < "\x7f" else f"\\U{ord(c):08x}"
                       for c in json.dumps(name, ensure_ascii=False))
    def kernel_key(name, indent):
        q = quoted(name)
        return f"{indent}{q}:" if len(q) <= 1024 else f"{indent}? {q}\n{indent}:"
    for key in ("hypotheses", "experiments", "observations"):
        out.write(f"{key}: [" + ", ".join(map(quoted, getattr(model, key))) + "]\n")
    out.write("prior: " + fmt_list(model.prior) + "\nkernel:\n")
    for u, uname in enumerate(model.experiments):
        out.write(kernel_key(uname, "  ") + "\n")
        for i, hname in enumerate(model.hypotheses):
            out.write(kernel_key(hname, "    ") + " " + fmt_list(model.kernel[i, u]) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Built-in models for the anomaly-detection experiments
# ---------------------------------------------------------------------------

def _two_sensor(p1: dict) -> HypothesisModel:
    """Hypotheses 0, 1 and 2 at a uniform prior, probed by the experiments
    of `p1`, each mapped to its P(Y=1 | X = i, U) by hypothesis i."""
    p = np.array(list(p1.values())).T[:, :, None]
    kernel = np.concatenate([1.0 - p, p], axis=2)
    return make_model(["0", "1", "2"], list(p1), ["0", "1"], kernel, np.full(3, 1.0 / 3.0))


def table1() -> HypothesisModel:
    """Two noisy sensors A and B watching for an anomaly.

    Hypothesis 0 is "no anomaly"; 1 and 2 locate the anomaly near sensor
    A or B.  P(Y=1 | X, U) is nu = 0.6 when the probed sensor sits next
    to the anomaly and 1-nu otherwise.  Uniform prior.
    """
    nu = 0.6
    return _two_sensor({"A": [1 - nu, nu, 1 - nu], "B": [1 - nu, 1 - nu, nu]})


def table2() -> HypothesisModel:
    """The two-sensor setup extended with experiments C and D, on which
    a naive most-likely-alternate heuristic picks the wrong sensor."""
    return _two_sensor({"A": [0.400, 0.600, 0.400],
                        "B": [0.400, 0.400, 0.600],
                        "C": [0.402, 0.598, 0.280],
                        "D": [0.402, 0.280, 0.598]})


BUILTIN_MODELS = {"table1": table1, "table2": table2}


def resolve_model(name_or_path: str) -> HypothesisModel:
    """Look up a built-in model by name or load a model file."""
    if name_or_path in BUILTIN_MODELS:
        return BUILTIN_MODELS[name_or_path]()
    return load_model_file(name_or_path)
