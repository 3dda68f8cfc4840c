"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Training-based criteria share one module-scoped fixture of five
seeded runs so the whole suite stays fast.
"""

import functools
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

import fairline as fl
from fairline.cli import main as cli_main
from fairline.model import MlpArchitecture, forward, init_params, layer_views
from fairline.subspace import batch_gradients, interpolate

SEEDS = range(5)
ALPHA_GRID = [k / 20 for k in range(21)]
FIXED_GRID = [k / 20 for k in range(21)]  # 0.0 (the ERM anchor) plus 0.05..1.0


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] {label}", flush=True)
                raise
            print(f"\n[PASS] {label}", flush=True)
            return out
        return wrapper
    return deco


# =====================================================================
# criterion 1: routed gradients vs central finite differences
# =====================================================================

def _cells_batch(rng, batch, d):
    """Random batch whose first four rows guarantee all four (s, y) cells."""
    x = rng.standard_normal((batch, d))
    s = np.concatenate([[0.0, 0.0, 1.0, 1.0],
                        (rng.random(batch - 4) < 0.5).astype(np.float64)])
    y = np.concatenate([[1.0, 0.0, 1.0, 0.0],
                        (rng.random(batch - 4) < 0.5).astype(np.float64)])
    return x, y, s


def _fd_safe(arch, w1, w2, alpha, x, y, s, metric, margin=1e-3):
    """Finite differences are only a valid oracle away from the creases:
    ReLU pre-activation kinks and the |group gap| = 0 corner."""
    theta = interpolate(w1, w2, alpha)
    pred, _ = forward(arch, theta, x)
    h = x
    for w, b in layer_views(arch, theta)[:-1]:
        z = h @ w + b
        if np.any(np.abs(z) < margin):
            return False
        h = np.maximum(z, 0.0)
    pos, neg = y == 1.0, y == 0.0
    cells = {
        "dp": [(s == 0.0, s == 1.0)],
        "eo": [((s == 0.0) & pos, (s == 1.0) & pos)],
        "eodd": [((s == 0.0) & pos, (s == 1.0) & pos),
                 ((s == 0.0) & neg, (s == 1.0) & neg)],
    }[metric]
    for m0, m1 in cells:
        gap = pred[m0].mean() - pred[m1].mean()
        if abs(gap) < margin:
            return False
    return True


def test_fd_safe_rejects_a_pre_activation_inside_the_margin():
    arch = MlpArchitecture(3, (4,))
    x, y, s = _cells_batch(np.random.default_rng(7), 12, 3)
    params = init_params(arch, 1)
    (w1, b1), (w_out, _) = layer_views(arch, params)
    w_out[0, 0] = 0.0  # hidden unit 0 no longer reaches the prediction
    assert _fd_safe(arch, params, params, 0.0, x, y, s, "dp")
    # move row 0's unit-0 pre-activation to 5e-4, inside the 1e-3 margin;
    # the predictions, and so the group-gap check, stay as they were
    b1[0] += 5e-4 - (x[0] @ w1[:, 0] + b1[0])
    assert not _fd_safe(arch, params, params, 0.0, x, y, s, "dp")


@criterion("criterion 1: gradient correctness (100 configs, rel 1e-4, < 2 min)")
def test_criterion_1_gradient_correctness():
    t_start = time.perf_counter()
    alphas = (0.0, 0.3, 1.0)
    metrics = ("dp", "eo", "eodd")
    h = 1e-5
    redraws = 0
    for i in range(100):
        alpha = alphas[i % 3]
        metric = metrics[(i // 3) % 3]
        for attempt in range(50):
            rng = np.random.default_rng([991, i, attempt])
            d = int(rng.integers(2, 9))
            hidden = int(rng.integers(1, 17))
            batch = int(rng.integers(4, 33))
            arch = MlpArchitecture(d, (hidden,))
            w1 = init_params(arch, int(rng.integers(0, 10_000)))
            w2 = init_params(arch, int(rng.integers(10_000, 20_000)))
            x, y, s = _cells_batch(rng, batch, d)
            if _fd_safe(arch, w1, w2, alpha, x, y, s, metric):
                break
            redraws += 1
        else:
            pytest.fail(f"config {i}: no finite-difference-safe draw found")
        a_weight = float(rng.uniform(0.5, 2.0))
        b_weight = float(rng.uniform(0.25, 1.0))
        cfg = fl.TrainConfig(epochs=1, fairness_weight=a_weight,
                             diversity_weight=b_weight, fairness_metric=metric)

        def total_loss(wa, wb):
            theta = interpolate(wa, wb, alpha)
            pred, _ = forward(arch, theta, x)
            value = fl.bce(pred, y).value
            value += a_weight * alpha * fl.fairness_loss(metric, pred, y, s).value
            value += b_weight * fl.squared_cosine(wa, wb).value
            return value

        bg = batch_gradients(arch, w1, w2, alpha, x, y, s, cfg)
        for which, grad in enumerate(bg.grads):
            for k in range(arch.param_count):
                up = [w1.copy(), w2.copy()]
                up[which][k] += h
                down = [w1.copy(), w2.copy()]
                down[which][k] -= h
                fd = (total_loss(*up) - total_loss(*down)) / (2 * h)
                g = grad[k]
                assert abs(g - fd) <= max(1e-4 * max(abs(g), abs(fd)), 1e-7), (
                    f"config {i} endpoint {which} coord {k}: "
                    f"analytic {g} vs fd {fd} (alpha={alpha}, metric={metric})")
    assert redraws < 300, f"finite-difference guard redrew {redraws} times"
    elapsed = time.perf_counter() - t_start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


# =====================================================================
# criterion 2: gradient-routing identity
# =====================================================================

@criterion("criterion 2: gradient-routing identity (exact factors, exact products)")
def test_criterion_2_routing_identity(line_batches, line_parts, force_alpha):
    rng = np.random.default_rng(2024)
    # the routed products and the factor sum are exact for every draw
    for _ in range(200):
        alpha = float(rng.uniform())
        g = rng.standard_normal(257) * (10.0 ** rng.integers(-9, 9))
        g1 = (1.0 - alpha) * g
        g2 = alpha * g
        assert np.array_equal(g1, (1.0 - alpha) * g)
        assert np.array_equal(g2, alpha * g)
        assert (1.0 - alpha) + alpha == 1.0
        # materialized float64 sum: exact up to one ulp (exact real identity;
        # the two independently rounded products cannot always re-sum to the
        # same bits, see the decisions ledger)
        diff = np.abs((g1 + g2) - g)
        assert np.all(diff <= np.spacing(np.abs(g)))
    alphas = rng.uniform(size=1_000_000)
    assert np.all((1.0 - alphas) + alphas == 1.0)
    # at alpha in {0, 1/2, 1} both factors are powers of two: bitwise exact sum
    g = rng.standard_normal(4096) * (10.0 ** rng.integers(-9, 9, size=4096))
    for alpha in (0.0, 0.5, 1.0):
        assert np.array_equal((1.0 - alpha) * g + alpha * g, g)
    # degenerate cases zero the respective endpoint's task gradient exactly
    assert np.all((0.0 * g) == 0.0)
    assert np.array_equal(1.0 * g, g)
    # and the same holds for the gradients Adam applies in a real training
    # batch: without the regularizer, exactly the routed products; with it,
    # bit for bit the routed products plus the scaled squared-cosine gradients
    ds = fl.synth_biased(64, 3, 0.5, 0.3, 1.0, seed=0)
    arch = MlpArchitecture(3, (4,))
    for cfg in (fl.TrainConfig(epochs=1, batch_size=16, seed=3, diversity_weight=0.0),
                fl.TrainConfig(epochs=1, batch_size=16, seed=3)):
        line_batches.clear()
        fl.train_subspace(ds, cfg, arch=arch)
        assert line_batches
        for args, bg in line_batches:
            alpha, weight = args[3], cfg.diversity_weight
            g, reg = line_parts(*args)
            if weight == 0.0:
                assert np.array_equal(bg.grads[0], (1.0 - alpha) * g)
                assert np.array_equal(bg.grads[1], alpha * g)
            want = np.stack(((1.0 - alpha) * g + weight * reg.grad_w1,
                             alpha * g + weight * reg.grad_w2))
            assert bg.grads.tobytes() == want.tobytes()
    cfg = fl.TrainConfig(epochs=1, batch_size=16, seed=3, diversity_weight=0.0)
    for alpha, row in ((0.0, 1), (1.0, 0)):
        force_alpha(alpha)
        line_batches.clear()
        fl.train_subspace(ds, cfg, arch=arch)
        assert line_batches
        assert all(np.all(bg.grads[row] == 0.0) for _, bg in line_batches)


# =====================================================================
# shared five-seed training fixture for criteria 3, 4, 5, 6
# =====================================================================

@pytest.fixture(scope="module")
def tradeoff_runs():
    runs = []
    t_subspace_total = 0.0
    for seed in SEEDS:
        ds = fl.synth_biased(8000, 6, 0.5, 0.4, 1.0, seed=100 + seed)
        train, test = fl.split(ds, 0.25, seed=seed)
        cfg = fl.TrainConfig(epochs=8, seed=seed)
        t0 = time.perf_counter()
        model = fl.train_subspace(train, cfg)
        records = fl.alpha_sweep(model, test, ALPHA_GRID)
        t_subspace_total += time.perf_counter() - t0
        fixed_models = fl.sweep_fixed(train, cfg, FIXED_GRID, jobs=2)
        fixed_records = []
        for fm in fixed_models:
            pred = fl.predict_fixed(fm, test.features)
            rec = fl.evaluate_predictions(pred, test.labels, test.sensitive)
            fixed_records.append(replace(rec, fairness_weight=fm.fairness_weight))
        runs.append(dict(seed=seed, train=train, test=test, records=records,
                         fixed_records=fixed_records))
    runs.append(dict(subspace_seconds=t_subspace_total))
    return runs


@criterion("criterion 3: flexible trade-off (Spearman <= -0.9, DP halved, 4/5 seeds, < 5 min)")
def test_criterion_3_flexible_tradeoff(tradeoff_runs):
    ok = 0
    for run in tradeoff_runs[:-1]:
        dps = [r.dp_relaxed for r in run["records"]]
        rho = spearmanr(ALPHA_GRID, dps).statistic
        if rho <= -0.9 and dps[-1] <= 0.5 * dps[0]:
            ok += 1
    assert ok >= 4, f"only {ok} of 5 seeds show the trade-off"
    assert tradeoff_runs[-1]["subspace_seconds"] < 300.0


@criterion("criterion 4: Pareto coincidence (median frontier gap <= 0.05)")
def test_criterion_4_pareto_coincidence(tradeoff_runs):
    gaps = []
    for run in tradeoff_runs[:-1]:
        f_sub = fl.pareto_frontier(run["records"], "dp_relaxed")
        penalized = [r for r in run["fixed_records"] if r.fairness_weight > 0]
        f_fix = fl.pareto_frontier(penalized, "dp_relaxed")
        gaps.append(fl.frontier_gap(f_sub, f_fix, "dp_relaxed"))
    assert statistics.median(gaps) <= 0.05, f"gaps {gaps}"


@criterion("criterion 5: training overhead (subspace <= 2.0x fixed)")
def test_criterion_5_training_overhead(tradeoff_runs):
    train = tradeoff_runs[0]["train"]
    cfg = fl.TrainConfig(epochs=8, seed=0)
    fl.train_fixed(train, cfg, 1.0)  # warm both code paths
    fl.train_subspace(train, cfg)
    t_fixed = min(
        timed(lambda: fl.train_fixed(train, cfg, 1.0)) for _ in range(3))
    t_subspace = min(
        timed(lambda: fl.train_subspace(train, cfg)) for _ in range(3))
    assert t_subspace <= 2.0 * t_fixed, f"{t_subspace:.3f}s vs {t_fixed:.3f}s"


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@criterion("criterion 6: ERM anchor (median |err(alpha=0) - err(ERM)| <= 0.02)")
def test_criterion_6_erm_anchor(tradeoff_runs):
    diffs = []
    for run in tradeoff_runs[:-1]:
        err_alpha0 = run["records"][0].error_rate
        erm = next(r for r in run["fixed_records"] if r.fairness_weight == 0.0)
        diffs.append(abs(err_alpha0 - erm.error_rate))
    assert statistics.median(diffs) <= 0.02, f"diffs {diffs}"


# =====================================================================
# criterion 7: determinism and persistence
# =====================================================================

@criterion("criterion 7: determinism and persistence")
def test_criterion_7_determinism(tmp_path):
    ds = fl.synth_biased(600, 4, 0.5, 0.3, 1.0, seed=5)
    train, test = fl.split(ds, 0.25, seed=5)
    cfg = fl.TrainConfig(epochs=2, batch_size=64, seed=5)
    paths = [tmp_path / f"m{i}.ckpt" for i in (0, 1)]
    reports = [tmp_path / f"r{i}.csv" for i in (0, 1)]
    for ckpt_path, report_path in zip(paths, reports):
        model = fl.train_subspace(train, cfg)
        fl.save_checkpoint(model, ckpt_path)
        fl.write_report(fl.alpha_sweep(model, test, ALPHA_GRID), report_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert reports[0].read_bytes() == reports[1].read_bytes()

    model = fl.train_subspace(train, cfg)
    loaded = fl.load_checkpoint(paths[0])
    assert loaded.arch == model.arch
    assert loaded.w_acc.tobytes() == model.w_acc.tobytes()
    assert loaded.w_fair.tobytes() == model.w_fair.tobytes()
    assert loaded.train_meta == model.train_meta

    blob = bytearray(paths[0].read_bytes())
    blob[len(blob) // 2] ^= 0x5A
    paths[0].write_bytes(bytes(blob))
    with pytest.raises(fl.CheckpointError):
        fl.load_checkpoint(paths[0])


# =====================================================================
# criterion 8: metric unit oracle
# =====================================================================

def _brute_force_frontier(pts, field):
    out = []
    seen = set()
    for p in pts:
        key = (p.error_rate, getattr(p, field))
        dominated = any(
            q.error_rate <= p.error_rate and getattr(q, field) <= key[1]
            and (q.error_rate < p.error_rate or getattr(q, field) < key[1])
            for q in pts)
        if not dominated and key not in seen:
            seen.add(key)
            out.append(p)
    return sorted(out, key=lambda r: r.error_rate)


@criterion("criterion 8: metric unit oracle (hand values exact, pareto vs brute force x1000)")
def test_criterion_8_metric_oracle():
    tol = 1e-12
    assert abs(fl.bce(np.array([0.5]), np.array([1.0])).value - math.log(2)) < tol
    assert abs(fl.fairness_loss(
        "dp", np.array([0.9, 0.5, 0.3, 0.7]), np.array([1.0, 0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 1.0, 1.0])).value - 0.2) < tol
    assert abs(fl.fairness_loss(
        "eo", np.array([0.9, 0.1, 0.6, 0.2]), np.array([1.0, 0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 1.0, 1.0])).value - 0.3) < tol
    assert abs(fl.fairness_loss(
        "eodd", np.array([1.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 1.0, 1.0])).value - 2.0) < tol
    assert abs(fl.squared_cosine(
        np.array([1.0, 1.0]), np.array([1.0, 0.0])).value - 0.5) < tol
    out = fl.evaluate_predictions(np.array([0.6, 0.4, 0.6, 0.4]),
                                  np.array([1.0, 0.0, 1.0, 0.0]),
                                  np.array([0.0, 0.0, 1.0, 1.0]))
    assert abs(out.dp_hard) < tol and abs(out.dp_relaxed) < tol

    def mk(e, f):
        return fl.MetricsRecord(alpha=None, fairness_weight=None, error_rate=e,
                                dp_relaxed=f, dp_hard=f, eo_relaxed=f,
                                eodd_relaxed=f)

    f1 = [mk(0.1, 0.9), mk(0.2, 0.5), mk(0.4, 0.2)]
    f2 = [mk(0.15, 0.8), mk(0.3, 0.4)]
    assert abs(fl.frontier_gap(f1, f2, "dp_relaxed") - 7.0 / 30.0) < tol

    pts = [mk(0.1, 0.3), mk(0.2, 0.1), mk(0.2, 0.3)]
    assert fl.pareto_frontier(pts, "dp_relaxed") == [pts[0], pts[1]]

    rng = np.random.default_rng(88)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        if rng.random() < 0.5:  # quantized coordinates force exact ties
            coords = rng.integers(0, 8, size=(n, 2)) / 10.0
        else:
            coords = rng.random((n, 2))
        pts = [mk(float(e), float(f)) for e, f in coords]
        assert fl.pareto_frontier(pts, "dp_relaxed") == \
            _brute_force_frontier(pts, "dp_relaxed")


# =====================================================================
# criterion 9: full pipeline on an income-table-format CSV
# =====================================================================

def _write_income_table(path, n=3000, seed=0):
    """A UCI-Adult-shaped file: numeric and categorical columns, a text
    label, and a text sensitive attribute, with the same planted structure
    the synthetic generator uses."""
    ds = fl.synth_biased(n, 4, 0.5, 0.4, 1.0, seed=seed)
    age = 38.0 + 12.0 * ds.features[:, 0]
    hours = 40.0 + 10.0 * ds.features[:, 1]
    education = np.array(["HS-grad", "Some-college", "Bachelors", "Masters"])[
        np.clip(np.digitize(ds.features[:, 2], [-0.7, 0.0, 0.7]), 0, 3)]
    occupation = np.array(["Craft-repair", "Sales", "Adm-clerical",
                           "Exec-managerial", "Prof-specialty"])[
        np.clip(np.digitize(ds.features[:, 3], [-1.0, -0.3, 0.3, 1.0]), 0, 4)]
    sex = np.where(ds.sensitive == 1.0, "Female", "Male")
    income = np.where(ds.labels == 1.0, ">50K", "<=50K")
    lines = ["age,education,occupation,hours-per-week,sex,income"]
    for i in range(n):
        lines.append(f"{age[i]:.2f},{education[i]},{occupation[i]},"
                     f"{hours[i]:.2f},{sex[i]},{income[i]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@criterion("criterion 9: income-table pipeline (ingest > train > sweep > compare)")
def test_criterion_9_income_table_pipeline(tmp_path):
    data = tmp_path / "income.csv"
    _write_income_table(data, n=3000, seed=1)
    schema_flags = ["--label-column", "income", "--sensitive-column", "sex",
                    "--positive-label", ">50K", "--positive-sensitive", "Female"]
    ckpt = tmp_path / "model.ckpt"
    test_csv = tmp_path / "test.csv"
    assert cli_main(["train", "--data", str(data), "--out", str(ckpt),
                     "--epochs", "8", "--seed", "0",
                     "--test-fraction", "0.25", "--test-out", str(test_csv),
                     *schema_flags]) == 0
    report = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--checkpoint", str(ckpt), "--test", str(test_csv),
                     "--out", str(report)]) == 0
    records = fl.read_report(report)
    assert len(records) == 21
    rho = spearmanr([r.alpha for r in records],
                    [r.dp_relaxed for r in records]).statistic
    assert rho <= -0.9, f"Spearman {rho}"
    cmp_report = tmp_path / "compare.csv"
    assert cli_main(["compare", "--data", str(data), "--out", str(cmp_report),
                     "--epochs", "8", "--seed", "0", *schema_flags]) == 0
    assert len(fl.read_report(cmp_report)) == 42
