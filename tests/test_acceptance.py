"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see the lines live).

The benchmark datasets are synthetic stand-ins with the real instance and
feature counts (see fixtures.py); accuracy floors are engineering floors
chosen to show that class information survives the encoding, not
published-model scores.
"""

import hashlib
import itertools
import time

import numpy as np
from scipy.stats import rankdata

from fixtures import (
    BENCHMARK_SHAPES,
    REFERENCE_BAC_MATRIX,
    REFERENCE_MEAN_RANKS,
    TIE_RESOLVED_BAC_MATRIX,
    even_odd_oracle,
    make_benchmark_dataset,
    write_keel_file,
)
from mdenc import encoders, scaling, stats
from mdenc.bench import linearity_fit, run_timing_sweep
from mdenc.cli import main
from mdenc.data import Dataset, generate_synthetic, make_cv_plan
from mdenc.probe import run_cv_eval
from mdenc.raster import scanline_fill_mask

# frozen from a reference run; PCG64 + SeedSequence streams are stable
# across platforms, so this digest pins cross-platform plan determinism
PLAN_DIGEST_SEED0 = "6cbe026c42fa4ad70ad6add13010a51af6b50170c5b32d238b1f4d5aa74ee092"


def report(num: int, label: str, passed: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {num}] {label}: {'PASS' if passed else 'FAIL'}{suffix}")
    assert passed, f"criterion {num} failed: {label}{suffix}"


def test_criterion_1_rasterization_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        pts = rng.uniform(-6.0, 70.0, size=(int(rng.integers(3, 13)), 2))
        mask = scanline_fill_mask(pts, 64, 64)
        mismatches += int((mask != even_odd_oracle(pts, 64, 64)).sum())
    elapsed = time.perf_counter() - start
    report(1, "scanline fill equals even-odd pixel-center oracle",
           mismatches == 0 and elapsed < 10.0,
           f"500 polygons, {mismatches} mismatched pixels, {elapsed:.2f}s")


def test_criterion_2_scaling_contract_on_benchmarks():
    l, u = 0.05, 0.95
    failures = []
    for name in BENCHMARK_SHAPES:
        ds = make_benchmark_dataset(name)
        train_idx, _ = make_cv_plan(ds, seed=0).split(0, 0)
        X_train = ds.X[train_idx]
        params = scaling.fit(X_train, l, u)
        scaled = scaling.transform(params, X_train)
        in_bounds = bool((scaled >= l).all() and (scaled <= u).all())
        min_ok = bool(np.abs(scaled.min(axis=0) - l).max() <= 1e-12)
        max_ok = bool(np.abs(scaled.max(axis=0) - u).max() <= 1e-12)
        if not (in_bounds and min_ok and max_ok):
            failures.append(name)
    report(2, "guard-bound scaling exact on every benchmark training fold",
           not failures, f"22 datasets, failures: {failures or 'none'}")


def test_criterion_3_igtd_desk_scale_optimality():
    rng = np.random.default_rng(77)
    optimal = 0
    monotone = True
    never_below = True
    for trial in range(50):
        n = int(rng.integers(3, 7))
        ds = generate_synthetic(30, n, seed=9000 + trial)
        model = encoders.fit_igtd(ds)
        mapping = model.layout
        # independent objective matrices via scipy ranking
        scaled = scaling.transform(model.scaler, ds.X)
        feat = np.sqrt(((scaled.T[:, None, :] - scaled.T[None, :, :]) ** 2).sum(axis=2))
        rows, cols = divmod(np.arange(n), mapping.cols)
        pix = np.sqrt((rows[:, None] - rows[None, :]) ** 2.0
                      + (cols[:, None] - cols[None, :]) ** 2.0)
        iu = np.triu_indices(n, 1)
        rank_feat = np.zeros((n, n))
        rank_feat[iu] = rankdata(feat[iu], method="average")
        rank_feat += rank_feat.T
        rank_pix = np.zeros((n, n))
        rank_pix[iu] = rankdata(pix[iu], method="average")
        rank_pix += rank_pix.T
        best = min(
            float(np.abs(rank_feat - rank_pix[np.ix_(p, p)])[iu].sum())
            for p in (np.array(q) for q in itertools.permutations(range(n)))
        )
        final = mapping.error_trace[-1]
        never_below &= final >= best - 1e-12
        optimal += int(final == best)
        monotone &= bool((np.diff(np.array(mapping.error_trace)) <= 0).all())
    report(3, "pixel-assignment search reaches the exhaustive optimum",
           optimal >= 45 and never_below and monotone,
           f"{optimal}/50 optimal, never below: {never_below}, traces monotone: {monotone}")


def test_criterion_4_statistics_correctness():
    rng = np.random.default_rng(55)

    # Wilcoxon against the full 2^n enumeration, vectorized independently
    wilcoxon_ok = True
    for case in range(200):
        n = int(rng.integers(5, 13))
        a = rng.uniform(size=n)
        b = rng.uniform(size=n)
        if case % 3 == 0:  # force ties among |differences|
            k = int(rng.integers(2, n))
            b[:k] = a[:k] - 0.125
        diffs = a - b
        nz = diffs[diffs != 0.0]
        ranks = rankdata(np.abs(nz), method="average")
        total = ranks.sum()
        w_obs = min(ranks[nz > 0].sum(), total - ranks[nz > 0].sum())
        signs = np.array(list(itertools.product((0.0, 1.0), repeat=len(nz))))
        w_all = signs @ ranks
        p_oracle = float((np.minimum(w_all, total - w_all) <= w_obs).mean())
        result = stats.wilcoxon_signed_rank(a, b)
        wilcoxon_ok &= (result.w_stat == w_obs and result.p_value == p_oracle)

    # F statistic against an independent recomputation of the formula
    f_ok = True
    for _ in range(200):
        a = rng.uniform(0.3, 1.0, size=10)
        b = rng.uniform(0.3, 1.0, size=10)
        diffs = (a - b).reshape(5, 2)
        mean = diffs.mean(axis=1, keepdims=True)
        manual = float((diffs ** 2).sum()) / (2.0 * float(((diffs - mean) ** 2).sum()))
        f_ok &= abs(stats.combined_5x2cv_f_test(a, b).f_stat - manual) <= 1e-12

    sf_ok = abs(stats.f_distribution_sf(1.0, 2, 2) - 0.5) <= 1e-10
    report(4, "Wilcoxon exact p-values, F statistic, F survival function",
           wilcoxon_ok and f_ok and sf_ok,
           f"wilcoxon oracle match: {wilcoxon_ok}, F recomputation: {f_ok}, sf(1,2,2): {sf_ok}")


def test_criterion_5_mean_rank_reproduction():
    # The displayed 3-decimal matrix collapses four score pairs into ties;
    # its own mean-rank summary row pins three of those orderings (see
    # fixtures.py), which the tie-resolved transcription restores.
    resolved = stats.mean_ranks(TIE_RESOLVED_BAC_MATRIX)
    literal = stats.mean_ranks(REFERENCE_BAC_MATRIX)
    deviation = float(np.abs(resolved - REFERENCE_MEAN_RANKS).max())
    literal_dev = float(np.abs(literal - REFERENCE_MEAN_RANKS).max())
    report(5, "mean ranks reproduce the reference summary row",
           deviation <= 1e-3,
           f"max deviation {deviation:.2e}; literal 3-decimal transcription "
           f"deviates {literal_dev:.3f} from the collapsed ties")


def test_criterion_6_encode_time_linearity():
    grid = (10, 25, 50, 100, 200, 350, 500)
    start = time.perf_counter()
    results = {}
    for kind in ("retire", "stml"):
        records = run_timing_sweep(kind, grid, n_samples=100, repeats=20,
                                   seed=0, size=(224, 224))
        slope, intercept, r_squared = linearity_fit(records)
        results[kind] = (slope, r_squared)
    elapsed = time.perf_counter() - start
    passed = all(r2 >= 0.9 for _, r2 in results.values()) and elapsed < 300.0
    detail = ", ".join(f"{k}: r^2={r2:.4f} slope={s:.2e}s/feature"
                       for k, (s, r2) in results.items())
    report(6, "encode time grows linearly in feature count",
           passed, f"{detail}, {elapsed:.0f}s total")


def test_criterion_7_class_information_survives_encoding():
    # pixel probe floors on the two reference datasets; evaluated at 64x64
    # (the canvas size is a run parameter; 224x224 stays the encoder default)
    floors = {"banknote": 0.85, "wisconsin": 0.80}
    details = []
    passed = True
    for name, floor in floors.items():
        ds = make_benchmark_dataset(name)
        assert ds.n_instances >= 500
        plan = make_cv_plan(ds, seed=0)
        rep = run_cv_eval(ds, "retire", plan, size=(64, 64))
        details.append(f"{name}: mean BAC {rep.mean_bac:.3f} (floor {floor})")
        passed &= rep.mean_bac >= floor and rep.mean_bac > 0.5
    report(7, "1-NN pixel probe clears the accuracy floors under 5x2 CV",
           passed, "; ".join(details))


def test_criterion_8_determinism(tmp_path):
    ds = make_benchmark_dataset("cryotherapy")
    keel = write_keel_file(ds, tmp_path / "cryotherapy.dat")
    model_path = tmp_path / "model.json"
    assert main(["fit", "--dataset", str(keel), "--encoder", "retire",
                 "--size", "64x64", "--out", str(model_path)]) == 0
    payloads = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        assert main(["encode", "--dataset", str(keel), "--model", str(model_path),
                     "--rows", "0:8", "--out", str(out_dir)]) == 0
        payloads.append({p.name: p.read_bytes() for p in sorted(out_dir.glob("*.pgm"))})
    encode_ok = payloads[0] == payloads[1] and len(payloads[0]) == 8

    plan = make_cv_plan(generate_synthetic(40, 3, seed=7), seed=0)
    digest = hashlib.sha256(plan.assignments.tobytes()).hexdigest()
    plan_ok = digest == PLAN_DIGEST_SEED0
    report(8, "byte-identical re-encoding and pinned CV plan stream",
           encode_ok and plan_ok,
           f"pgm bytes identical: {encode_ok}, plan digest pinned: {plan_ok}")


def test_criterion_9_no_test_fold_leakage():
    ds = make_benchmark_dataset("wisconsin")
    plan = make_cv_plan(ds, seed=0)
    leak_free = True
    for repeat, fold, train_idx, test_idx in plan.iter_splits():
        X = ds.X.copy()
        X[test_idx] *= 10.0
        perturbed = Dataset(ds.name, X, ds.y, ds.feature_names, ds.class_names)
        base_scaler = scaling.fit(ds.X[train_idx])
        pert_scaler = scaling.fit(perturbed.X[train_idx])
        leak_free &= (
            base_scaler.fit_fingerprint == pert_scaler.fit_fingerprint
            and base_scaler.mins.tobytes() == pert_scaler.mins.tobytes()
            and base_scaler.maxs.tobytes() == pert_scaler.maxs.tobytes()
        )
        base_map = encoders.fit_igtd(ds.subset(train_idx)).layout
        pert_map = encoders.fit_igtd(perturbed.subset(train_idx)).layout
        leak_free &= (
            base_map.assignment.tobytes() == pert_map.assignment.tobytes()
            and base_map.error_trace == pert_map.error_trace
        )
    report(9, "fitted scaler and pixel assignment ignore test folds",
           leak_free, "10 splits, x10 test-fold perturbation")
