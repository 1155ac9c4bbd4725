"""Model layer: parsing, validation, derived quantities."""

import math
import os
from fractions import Fraction
from itertools import product
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decimal_model, random_model
from fhat.model import (HypothesisModel, ModelError, kl_divergence,
                        kl_matrix, llr_table, load_model, make_model,
                        ratio_lattice, serialize_model, table1, table2)
from fhat.cli import main
from oracles import assumption_pairwise_informative, log_likelihood_ratio

LN15 = math.log(1.5)

TABLE1_DOC = """
hypotheses: [safe, near-a, near-b]
experiments: [A, B]
observations: ["0", "1"]
prior: [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]
kernel:
  A:
    safe:   [0.6, 0.4]
    near-a: [0.4, 0.6]
    near-b: [0.6, 0.4]
  B:
    safe:   [0.6, 0.4]
    near-a: [0.6, 0.4]
    near-b: [0.4, 0.6]
"""


class TestLoadModel:
    def test_table1_document_bound(self):
        """The LLR bound of the two-sensor document is ln(0.6/0.4)."""
        m = load_model(TABLE1_DOC)
        assert m.num_hypotheses == 3
        np.testing.assert_allclose(m.llr_bound, LN15, atol=1e-12)

    def test_common_support_violation(self):
        doc = TABLE1_DOC.replace("near-a: [0.4, 0.6]\n    near-b: [0.6, 0.4]\n  B",
                                 "near-a: [0.0, 1.0]\n    near-b: [0.6, 0.4]\n  B")
        with pytest.raises(ModelError, match="common-support"):
            load_model(doc)

    def test_prior_without_full_support(self):
        doc = TABLE1_DOC.replace("prior: [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]",
                                 "prior: [0.5, 0.5, 0.0]")
        with pytest.raises(ModelError, match=r"full support: prior\[near-b\] = 0\.0$"):
            load_model(doc)

    def test_row_sum_enforced(self):
        doc = TABLE1_DOC.replace("safe:   [0.6, 0.4]", "safe:   [0.6, 0.41]", 1)
        with pytest.raises(ModelError, match=r"sums to 1\.01, not 1"):
            load_model(doc)

    def test_non_finite_entries(self):
        """A NaN kernel entry would fall off the support and a NaN prior
        would pass both the sum and the positivity checks; each is named."""
        nan = math.nan
        kernel = [[[nan, .5, .5]], [[nan, .4, .6]]]
        with pytest.raises(ModelError, match=r"non-finite probability at kernel\[0,0,0\]"):
            make_model(["a", "b"], ["u"], ["0", "1", "2"], kernel, [.5, .5])
        kernel = [[[.5, .5]], [[.4, .6]]]
        with pytest.raises(ModelError, match=r"non-finite probability at prior\[0\]"):
            make_model(["a", "b"], ["u"], ["0", "1"], kernel, [nan, .5])
        with pytest.raises(ModelError, match=r"non-finite probability at prior\[1\]"):
            make_model(["a", "b"], ["u"], ["0", "1"], kernel, [.5, math.inf])

    def test_parse_failure(self):
        with pytest.raises(ModelError, match="parse|key-value"):
            load_model("[:::")
        with pytest.raises(ModelError, match="key-value"):
            load_model("[1, 2]")

    def test_unclosed_flow_sequence_is_a_parse_error(self):
        with pytest.raises(ModelError, match="cannot parse"):
            load_model("hypotheses: [a, b\n")

    def test_builtin_models_do_not_import_yaml(self):
        """PyYAML is imported by load_model alone: a fresh interpreter
        that imports the CLI and resolves a built-in model never loads
        it."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, warnings; warnings.simplefilter('ignore'); "
                "import fhat.cli; from fhat.model import resolve_model; "
                "resolve_model('table1'); print('yaml' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"

    def test_missing_field(self):
        with pytest.raises(ModelError, match="missing field"):
            load_model("hypotheses: [a, b]\n")

    @pytest.mark.parametrize("doc,message", [
        pytest.param(TABLE1_DOC[:TABLE1_DOC.index("kernel:")] + "kernel: [1, 2]\n",
                     "'kernel' must map", id="kernel-list"),
        pytest.param(TABLE1_DOC[:TABLE1_DOC.index("kernel:")] + "kernel: {u: [1, 2]}\n",
                     "'kernel' must map", id="kernel-row-list"),
        pytest.param(TABLE1_DOC.replace("safe:   [0.6, 0.4]", "safe:   0.5", 1),
                     r"kernel\['A'\]\['safe'\] must be a list of reals", id="row-scalar"),
        pytest.param(TABLE1_DOC.replace("hypotheses: [safe, near-a, near-b]",
                                        "hypotheses: 5"),
                     "'hypotheses' must be a list", id="hypotheses-scalar"),
        pytest.param(TABLE1_DOC.replace("safe:   [0.6, 0.4]", "safe:   [0.6, null]", 1),
                     r"kernel\['A'\]\['safe'\] must be a list of reals", id="row-not-reals"),
        pytest.param(TABLE1_DOC.replace("safe:   [0.6, 0.4]", "safe:   [0.6, 0.3, 0.1]", 1),
                     r"kernel\['A'\]\['safe'\] has 3 entries, expected 2", id="row-length"),
        pytest.param(TABLE1_DOC[:TABLE1_DOC.index("  B:")],
                     "kernel missing experiment 'B'", id="missing-experiment"),
        pytest.param(TABLE1_DOC.replace("    near-b: [0.4, 0.6]\n", ""),
                     r"kernel\['B'\] missing hypothesis 'near-b'", id="missing-hypothesis"),
    ])
    def test_malformed_node_is_a_model_error(self, capsys, tmp_path, doc, message):
        """A node of the wrong type or length, or a missing kernel entry,
        is named, and `fhat solve-game` on the file exits 2 rather than
        with a traceback."""
        with pytest.raises(ModelError, match=message):
            load_model(doc)
        path = tmp_path / "bad.yaml"
        path.write_text(doc)
        assert main(["solve-game", "--reference", "0", "--model", str(path)]) == 2
        assert capsys.readouterr().err.startswith("fhat: error:")

    @pytest.mark.parametrize("doc,message", [
        pytest.param(TABLE1_DOC.replace("experiments: [A, B]", "experiments: [A]"),
                     "kernel experiment 'B' is not in 'experiments'", id="experiment"),
        pytest.param(TABLE1_DOC.replace("    near-b: [0.4, 0.6]\n",
                                        "    near-b: [0.4, 0.6]\n    far: [0.5, 0.5]\n"),
                     r"kernel\['B'\] hypothesis 'far' is not in 'hypotheses'",
                     id="hypothesis"),
    ])
    def test_unlisted_kernel_entry(self, capsys, tmp_path, doc, message):
        """A kernel experiment, or a hypothesis inside a kernel row, that
        the name lists do not hold is an error, not a silently dropped
        entry, and `fhat solve-game` on the file exits 2."""
        with pytest.raises(ModelError, match=message):
            load_model(doc)
        path = tmp_path / "bad.yaml"
        path.write_text(doc)
        assert main(["solve-game", "--reference", "0", "--model", str(path)]) == 2
        assert capsys.readouterr().err.startswith("fhat: error:")

    def test_repeated_hypothesis_name(self):
        """Two hypotheses named alike would both read the one kernel row."""
        doc = ("hypotheses: [a, a]\nexperiments: [u]\nobservations: ['0', '1']\n"
               "prior: [0.5, 0.5]\nkernel:\n  u:\n    a: [0.3, 0.7]\n")
        with pytest.raises(ModelError, match="hypothesis name 'a' repeats"):
            load_model(doc)

    @pytest.mark.parametrize("names,what", [
        ((["a", "b"], ["u", "u"], ["0", "1"]), "experiment name 'u'"),
        ((["a", "b"], ["u", "v"], ["0", "0"]), "observation name '0'"),
    ])
    def test_repeated_names(self, names, what):
        kernel = np.full((2, 2, 2), 0.5)
        with pytest.raises(ModelError, match=what + " repeats"):
            make_model(*names, kernel, [0.5, 0.5])

    @pytest.mark.parametrize("names,kernel,prior,message", [
        ((["a"], ["u"], ["0", "1"]), [[[0.5, 0.5]]], [1.0], "at least 2 hypotheses"),
        ((["a", "b"], [], ["0", "1"]), np.zeros((2, 0, 2)), [0.5, 0.5],
         "at least one experiment and one observation"),
        ((["a", "b"], ["u"], []), np.zeros((2, 1, 0)), [0.5, 0.5],
         "at least one experiment and one observation"),
        ((["a", "b"], ["u"], ["0", "1"]), np.full((2, 1, 3), 1 / 3), [0.5, 0.5],
         r"kernel shape \(2, 1, 3\) does not match"),
        ((["a", "b"], ["u"], ["0", "1"]), np.full((2, 1, 2), 0.5), [1.0],
         r"prior shape \(1,\) does not match M=2"),
        ((["a", "b"], ["u"], ["0", "1"]), [[[0.5, 0.5]], [[1.5, -0.5]]], [0.5, 0.5],
         r"negative probability at kernel\[1,0,1\]"),
        ((["a", "b"], ["u"], ["0", "1"]), np.full((2, 1, 2), 0.5), [0.5, 0.6],
         r"prior sums to 1\.1, not 1 within"),
    ], ids=["one-hypothesis", "no-experiment", "no-observation", "kernel-shape",
            "prior-shape", "negative-entry", "prior-sum"])
    def test_invalid_arrays(self, names, kernel, prior, message):
        with pytest.raises(ModelError, match=message):
            make_model(*names, kernel, prior)

    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(5)
        models = [random_model(rng) for _ in range(20)]
        # names YAML reads otherwise unquoted, or as escapes in Python's repr
        for name in ("a\\b", "line\nbreak", "tab\t", "nul\x00", "bell\x07",
                     "it's \"x\"", "", "null", "1", "#c", "x: y", "caf\u00e9",
                     "\U0001f600", "\x85\u2028\x7f"):
            models.append(make_model([name, "h"], [name], [name, "y"],
                                     [[[0.25, 0.75]], [[0.5, 0.5]]], [0.5, 0.5]))
        for m in models:
            m2 = load_model(serialize_model(m))
            assert np.array_equal(m.kernel, m2.kernel)
            assert np.array_equal(m.prior, m2.prior)
            assert m.hypotheses == m2.hypotheses
            assert (m.experiments, m.observations) == (m2.experiments, m2.observations)
            assert m.llr_bound == m2.llr_bound

    def test_names_past_the_implicit_key_limit_roundtrip(self):
        """YAML allows an implicit key of at most 1024 characters: a
        kernel key whose quoted scalar is longer is written in explicit
        form and reloads as written, and one of exactly 1024 keeps the
        implicit form.  A character past ASCII is written as a
        10-character \\U escape."""
        for name, explicit in (("h" * 1022, False), ("h" * 1023, True),
                               ("h" * 1100, True), ("é" * 102, False),
                               ("é" * 103, True)):
            m = make_model([name, "h"], [name, "v"], ["0", name],
                           [[[0.25, 0.75], [0.5, 0.5]], [[0.5, 0.5], [0.1, 0.9]]],
                           [0.5, 0.5])
            text = serialize_model(m)
            assert ("\n  ? " in text) == ("\n    ? " in text) == explicit, len(name)
            m2 = load_model(text)
            assert m.kernel.tobytes() == m2.kernel.tobytes()
            assert (m.hypotheses, m.experiments, m.observations) == (
                m2.hypotheses, m2.experiments, m2.observations)


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.5, 0.3])
        assert kl_divergence(p, p) == 0.0

    def test_bernoulli_example(self):
        # D(Bern(0.6) || Bern(0.4)) = 0.2 ln 1.5
        got = kl_divergence([0.4, 0.6], [0.6, 0.4])
        np.testing.assert_allclose(got, 0.2 * LN15, atol=1e-15)

    def test_table1_rows(self, t1):
        got = kl_divergence(t1.kernel[0, 0], t1.kernel[1, 0])
        np.testing.assert_allclose(got, 0.2 * LN15, atol=1e-15)

    def test_mismatched_support(self):
        with pytest.raises(ModelError, match="mismatched"):
            kl_divergence([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(ModelError, match="mismatched"):
            kl_divergence([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.uniform(0.05, 1, 4)
            q = rng.uniform(0.05, 1, 4)
            assert kl_divergence(p / p.sum(), q / q.sum()) >= 0.0


class TestLogLikelihoodRatio:
    def test_table1_entry(self, t1):
        got = log_likelihood_ratio(t1, 0, 1, 0, 1)   # u=A, y=1
        np.testing.assert_allclose(got, math.log(0.4 / 0.6), atol=1e-15)

    def test_self_ratio_zero(self, t1):
        for u in range(2):
            for y in range(2):
                assert log_likelihood_ratio(t1, 1, 1, u, y) == 0.0

    def test_identical_rows_zero(self, t1):
        # hypotheses 0 and 2 are indistinguishable under experiment A
        for y in range(2):
            assert log_likelihood_ratio(t1, 0, 2, 0, y) == 0.0

    def test_out_of_support_errors(self):
        doc = TABLE1_DOC.replace('observations: ["0", "1"]',
                                 'observations: ["0", "1", "2"]')
        doc = doc.replace("[0.6, 0.4]", "[0.6, 0.4, 0.0]")
        doc = doc.replace("[0.4, 0.6]", "[0.4, 0.6, 0.0]")
        m = load_model(doc)
        with pytest.raises(ModelError, match="support"):
            log_likelihood_ratio(m, 0, 1, 0, 2)

    def test_antisymmetry_random_models(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = random_model(rng)
            for u in range(m.num_experiments):
                for y in m.support_indices(u):
                    i, j = rng.integers(m.num_hypotheses, size=2)
                    a = log_likelihood_ratio(m, i, j, u, int(y))
                    b = log_likelihood_ratio(m, j, i, u, int(y))
                    assert a == -b

    def test_mean_llr_equals_kl(self):
        """E_i[llr_j^i(u, Y)] = D(p_i^u || p_j^u), exact sums."""
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = random_model(rng)
            i, j = 0, m.num_hypotheses - 1
            for u in range(m.num_experiments):
                idx = m.support_indices(u)
                mean = sum(m.kernel[i, u, y] * log_likelihood_ratio(m, i, j, u, int(y))
                           for y in idx)
                kl = kl_divergence(m.kernel[i, u, idx], m.kernel[j, u, idx])
                np.testing.assert_allclose(mean, kl, atol=1e-12)

    def test_bound_dominates_all_ratios(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = random_model(rng)
            worst = max(abs(log_likelihood_ratio(m, i, j, u, int(y)))
                        for u in range(m.num_experiments)
                        for y in m.support_indices(u)
                        for i in range(m.num_hypotheses)
                        for j in range(m.num_hypotheses))
            assert worst <= m.llr_bound + 1e-15

    def test_bound_is_largest_ratio_and_log_tables_agree(self):
        """With no slack the bound is exactly the largest |LLR| taken pair
        by pair, and a model built directly derives the log kernel that
        make_model bounded the LLRs with."""
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = random_model(rng)
            worst = max(abs(log_likelihood_ratio(m, i, j, u, int(y)))
                        for u in range(m.num_experiments)
                        for y in m.support_indices(u)
                        for i in range(m.num_hypotheses)
                        for j in range(m.num_hypotheses))
            assert m.llr_bound == (worst if worst > 0 else 1.0)
            direct = HypothesisModel(m.hypotheses, m.experiments, m.observations,
                                     m.kernel, m.prior, m.support, m.llr_bound)
            assert np.array_equal(direct.log_kernel, m.log_kernel)
            assert np.array_equal(direct.log_prior, m.log_prior)


class TestBuiltins:
    def test_table1_values(self, t1):
        assert t1.experiments == ("A", "B")
        np.testing.assert_allclose(t1.kernel[1, 0, 1], 0.6)   # P(Y=1|X=1,U=A)
        np.testing.assert_allclose(t1.kernel[0, 0, 1], 0.4)
        np.testing.assert_allclose(t1.prior, np.full(3, 1 / 3))
        np.testing.assert_allclose(t1.llr_bound, LN15, atol=1e-12)
        kernel = np.array([[[0.6, 0.4], [0.6, 0.4]],
                           [[0.4, 0.6], [0.6, 0.4]],
                           [[0.6, 0.4], [0.4, 0.6]]])
        assert t1.kernel.tobytes() == kernel.tobytes()
        assert t1.prior.tobytes() == np.full(3, 0.3333333333333333).tobytes()

    def test_table2_values(self, t2):
        assert t2.experiments == ("A", "B", "C", "D")
        np.testing.assert_allclose(t2.kernel[2, 2, 1], 0.280)  # P(Y=1|X=2,U=C)
        np.testing.assert_allclose(t2.kernel[1, 3, 1], 0.280)
        np.testing.assert_allclose(t2.kernel[0, 2, 1], 0.402)
        kernel = np.array([[[0.6, 0.4], [0.6, 0.4], [0.598, 0.402], [0.598, 0.402]],
                           [[0.4, 0.6], [0.6, 0.4], [0.402, 0.598], [0.72, 0.28]],
                           [[0.6, 0.4], [0.4, 0.6], [0.72, 0.28], [0.402, 0.598]]])
        assert t2.kernel.tobytes() == kernel.tobytes()
        assert t2.prior.tobytes() == np.full(3, 0.3333333333333333).tobytes()

    def test_table1_does_not_warn_and_is_not_pairwise_informative(self):
        """Experiment A does not separate hypotheses 0 and 2; that is a
        query, not a warning (a zero game value is flagged where it
        matters, by game.solve and the symmetric composite)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = table1()
        assert not assumption_pairwise_informative(m)

    def test_pairwise_informative_model(self):
        m = make_model(["a", "b"], ["u"], ["0", "1"],
                       [[[0.3, 0.7]], [[0.7, 0.3]]], [0.5, 0.5])
        assert assumption_pairwise_informative(m)

    def test_kl_matrix_table2(self, t2):
        A = kl_matrix(t2, 0)
        assert A.shape == (4, 2)
        np.testing.assert_allclose(A[0, 0], 0.2 * LN15, atol=1e-12)
        np.testing.assert_allclose(A[0, 1], 0.0, atol=1e-15)
        # C against alternate 1 is the symmetric (0.402, 0.598) pair
        expect = 0.196 * math.log(0.598 / 0.402)
        np.testing.assert_allclose(A[2, 0], expect, atol=1e-12)

    def test_llr_table_matches_scalar(self, t2):
        L = llr_table(t2, 0)
        for k, j in enumerate((1, 2)):
            for u in range(4):
                for y in range(2):
                    assert L[k, u, y] == log_likelihood_ratio(t2, 0, j, u, y)


class TestRatioLattice:
    @staticmethod
    def ratios(m, hyps, n):
        """Exact p_j / p_hyps[0] of the path with counts n (flat, row
        u*Y + y), for each j of hyps, from the decimals the model was
        written with; a base of None is the constant 1."""
        U, Y = m.num_experiments, m.num_observations

        def p(h, u, y):
            return Fraction(1) if h is None else Fraction(repr(float(m.kernel[h, u, y])))

        out = []
        for j in hyps[1:]:
            r = Fraction(1)
            for u, y in product(range(U), range(Y)):
                k = int(n[u * Y + y])
                if k:
                    r *= (p(j, u, y) / p(hyps[0], u, y)) ** k
            out.append(r)
        return tuple(out)

    def test_equal_keys_mean_equal_ratios(self, t1, t2):
        """Over every count vector of at most 4 observations on the
        experiments given (all by default), two paths share a key
        exactly when they share the likelihood ratios among `hyps`: the
        key is exact, merging no more and no fewer, and zero on the
        rows of other experiments; G decodes each key to the log ratios.
        With the base None the ratios are the likelihoods themselves, the
        key enumeration merges on."""
        rng = np.random.default_rng(8)
        models = [t1, t2, *(decimal_model(rng) for _ in range(6))]
        merged = 0
        for m in models:
            M, U, Y = m.kernel.shape
            for hyps, exps in product(
                    (tuple(range(M)), tuple(range(1, M)), (M - 1, 0), (None, *range(M))),
                    (None, (0,), tuple(range(U // 2, U)))):
                cells = [u * Y + y for u in (range(U) if exps is None else exps)
                         for y in m.support_indices(u)]
                K, G = ratio_lattice(m, hyps, exps)
                assert K.dtype == np.int64 and K.shape[0] == U * Y
                assert not K[[r for r in range(U * Y) if r not in cells]].any()
                by_key, by_ratio = {}, {}
                for c in product(range(5), repeat=len(cells)):
                    if sum(c) > 4:
                        continue
                    n = np.zeros(U * Y, dtype=np.int64)
                    n[cells] = c
                    key, ratio = tuple(n @ K), self.ratios(m, hyps, n)
                    want = np.zeros(M)
                    want[list(hyps[1:])] = [math.log(r) for r in ratio]
                    assert np.allclose(np.array(key) @ G, want, rtol=0, atol=1e-12)
                    by_key.setdefault(key, set()).add(ratio)
                    by_ratio.setdefault(ratio, set()).add(key)
                assert all(len(v) == 1 for v in by_key.values()), (m.kernel, exps)
                assert all(len(v) == 1 for v in by_ratio.values()), (m.kernel, exps)
                merged += math.comb(4 + len(cells), 4) - len(by_key)
        assert merged > 0     # keys do merge paths with different counts

    def test_table_models_rank(self, t1, t2):
        """table1's alternates of 0 differ along one lattice direction
        and its three hypotheses along two; table2's alternates need
        three, two over C and D alone and one over A and B.  Taken
        narrowest first, table2's columns are all steps of -1, 0 or 1.
        The likelihoods themselves take one direction fewer than the
        (U, Y) cells on table1, and as many on table2."""
        assert ratio_lattice(t1, (1, 2))[0].shape == (4, 1)
        assert ratio_lattice(t1, (0, 1, 2))[0].shape == (4, 2)
        assert ratio_lattice(t2, (1, 2))[0].shape == (8, 3)
        assert np.abs(ratio_lattice(t2, (1, 2))[0]).max() == 1
        assert ratio_lattice(t2, (1, 2), (2, 3))[0].shape == (8, 2)
        assert ratio_lattice(t2, (1, 2), (0, 1))[0].shape == (8, 1)
        assert ratio_lattice(t1, (None, 0, 1, 2))[0].shape == (4, 3)
        assert ratio_lattice(t2, (None, 0, 1, 2))[0].shape == (8, 7)

    def test_float_models_have_no_lattice(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_model(rng)
            assert ratio_lattice(m, range(m.num_hypotheses)) is None
            assert ratio_lattice(m, (None, *range(m.num_hypotheses))) is None
        # one entry past six decimal places is enough
        m = make_model(["a", "b"], ["u"], ["0", "1"],
                       [[[0.25, 0.75]], [[0.1234567, 0.8765433]]], [0.5, 0.5])
        assert ratio_lattice(m, (0, 1)) is None
        assert ratio_lattice(m, (0,)) is not None   # reads hypothesis a only

    def test_rank_zero(self, t1):
        """A single hypothesis, or hypotheses with equal kernels, leave
        no ratio to track: a (U*Y, 0) key."""
        assert ratio_lattice(t1, (0,))[0].shape == (4, 0)
        m = make_model(["a", "b", "c"], ["u"], ["0", "1"],
                       [[[0.5, 0.5]], [[0.3, 0.7]], [[0.3, 0.7]]], [0.2, 0.3, 0.5])
        assert ratio_lattice(m, (1, 2))[0].shape == (2, 0)
        assert ratio_lattice(m, (0, 1, 2))[0].shape == (2, 2)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_models_validate(m_count, seed):
    """The generator only produces models that pass full validation."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, max_hyp=m_count)
    assert m.num_hypotheses >= 2
    assert np.isfinite(m.llr_bound)
    np.testing.assert_allclose(m.kernel.sum(axis=2), 1.0, atol=1e-12)
