"""Seeded operation generators for the three benchmark workloads.

Every operation is a plain dict: the CLI ``argv`` the program receives plus
the parameters the independent checks in :mod:`checks` need.  Operation
``i`` of a workload is a pure function of ``(seed, i)``, so the same seed
always gives the same inputs, however many operations a run gets through.

Operations come in cycles.  Each cycle holds every operation class of the
workload exactly once, in a seeded order, and a run only stops at the end
of a cycle; medians and tails therefore always see the same class mix.
"""

import numpy as np

SWEEP = "sweep-60k"
ISI = "isi-oracle"
CLI = "cli-cold"
WORKLOADS = (SWEEP, ISI, CLI)

OUTPUTS = "capacity,derivative,percent"
GUARD_MULTIPLES = (1.0, 2.0, 3.0, 4.0, 5.0)

# mode -> (--param, --from, --to, start Hz, stop Hz, points at full size)
SWEEP_MODES = {
    "digital": ("fs", "0.1GSPS", "100GSPS", 1e8, 1e11, 10000),
    "mixed": ("fcircuit", "1GHz", "60GHz", 1e9, 6e10, 20000),
    "binary": ("bandwidth", "0.1GHz", "20GHz", 1e8, 2e10, 20000),
}
SAMPLING_FACTORS = (2.0, 2.5, 3.0, 4.0, 5.0, 8.0)

# random-stream keys beside (cycle, slot); a slot is always below 98
_PROBE_KEY = 98
_ORDER_KEY = 99
_WARMUP_KEY = 10**9

CLI_KINDS = (
    "capacity-digital",
    "capacity-mixed",
    "capacity-binary",
    "capacity-ideal",
    "table-iv",
    "table-vii",
    "datasets",
    "validate-isi",
    "sweep",
)

# operations per cycle: every class of operation once
CYCLE_LEN = {SWEEP: 2 * len(SWEEP_MODES), ISI: 1, CLI: len(CLI_KINDS)}

# (table, extra argv, format, rows expected or None for "at least one")
DATASET_QUERIES = (
    ("adc-market", ["--where", "sampling_frequency>=1GSPS"], "csv", None),
    ("adc-state-of-art", ["--where", "bit_precision>=6"], "json", None),
    ("channels", ["--where", "sight=NLOS"], "csv", None),
    ("channels", ["--max", "rms_delay_spread"], "json", 1),
    ("pulse-generators", ["--min", "min_pulse_duration"], "csv", 1),
    ("antenna-configs", ["--where", "rms_delay_spread<=5ns"], "json", None),
)


def quantity(value: float, unit: str) -> str:
    """SI value as a unit-suffixed CLI argument that parses back exactly."""
    return f"{value!r}{unit}"


class Surveys:
    """The survey values operations draw from, read once per process."""

    def __init__(self):
        from uwbcap import datasets

        self.channel_d = [c.rms_delay_spread for c in datasets.load_builtin(datasets.CHANNELS)]
        self.antenna_d = [
            a.rms_delay_spread for a in datasets.load_builtin(datasets.ANTENNA_CONFIGS)
        ]
        self.pulse_tp = [
            g.min_pulse_duration for g in datasets.load_builtin(datasets.PULSE_GENERATORS)
        ]
        self.adc_fs = [
            a.sampling_frequency
            for table in (datasets.ADC_STATE_OF_ART, datasets.ADC_MARKET)
            for a in datasets.load_builtin(table)
        ]
        self.all_d = sorted(set(self.channel_d + self.antenna_d))


class Workload:
    """Operation ``i`` of workload ``name`` for one seed.

    ``tiny`` shrinks every operation (sweep points, oracle trials) so the
    smoke test runs in seconds; the inputs stay valid and checkable.
    """

    def __init__(self, name: str, seed: int, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.surveys = Surveys()
        self.cycle_len = CYCLE_LEN[name]

    def rng(self, *key):
        return np.random.default_rng((self.seed, *key))

    def probe_rng(self, i: int):
        """Stream for the layer probe that follows traced operation ``i``."""
        return self.rng(i, _PROBE_KEY)

    def op(self, i: int) -> dict:
        cycle, slot = divmod(i, self.cycle_len)
        if self.name == SWEEP:
            return self._sweep_op(cycle, slot)
        if self.name == ISI:
            return self._isi_op(i)
        return self._cli_op(cycle, slot)

    # ------------------------------------------------------------------ sweep

    def _sweep_op(self, cycle: int, slot: int) -> dict:
        # the format alternates csv/json; each format sees every mode once
        # per cycle, in an order drawn from the seed
        shuffle = self.rng(cycle, _ORDER_KEY)
        csv_modes = shuffle.permutation(list(SWEEP_MODES))
        json_modes = shuffle.permutation(list(SWEEP_MODES))
        fmt = "csv" if slot % 2 == 0 else "json"
        mode = str((csv_modes if fmt == "csv" else json_modes)[slot // 2])
        points = SWEEP_MODES[mode][5]
        return self.sweep_spec(self.rng(cycle, slot), mode, fmt, points // 100 if self.tiny else points)

    def sweep_spec(self, rng, mode: str, fmt: str, points: int) -> dict:
        param, lo, hi, start, stop, _ = SWEEP_MODES[mode]
        ds = [float(d) for d in rng.choice(self.surveys.channel_d, size=3, replace=False)]
        argv = [
            "sweep", "--mode", mode, "--param", param, "--from", lo, "--to", hi,
            "--points", str(points), "--log",
            "--delay-spreads", ",".join(quantity(d, "s") for d in ds),
            "--outputs", OUTPUTS, "--format", fmt,
        ]
        ns = [1.0]
        order = 2
        if mode == "digital":
            ns = [float(n) for n in sorted(rng.choice(SAMPLING_FACTORS, size=2, replace=False))]
            argv += ["--nsampling", ",".join(f"{n:g}" for n in ns)]
        if mode != "binary":
            order = int(rng.integers(2, 5))
            argv += ["--mary", str(order)]
        return {
            "kind": "sweep", "argv": argv, "format": fmt, "mode": mode,
            "start": start, "stop": stop, "points": points, "ds": ds, "ns": ns,
            "order": order, "sampling_column": mode == "digital",
            "items": points * len(ds) * len(ns),
        }

    # -------------------------------------------------------------------- isi

    def _isi_op(self, i: int) -> dict:
        rng = self.rng(i)
        d = float(rng.choice(self.surveys.all_d))
        tp = float(rng.choice(self.surveys.pulse_tp))
        trials = 400 if self.tiny else 2000
        return self.isi_spec(d, tp, trials, self.seed + i, deterministic=False)

    @staticmethod
    def isi_spec(d: float, tp: float, trials: int, seed: int, deterministic: bool) -> dict:
        argv = [
            "validate-isi", "--delay-spread", quantity(d, "s"),
            "--pulse-duration", quantity(tp, "s"),
            "--guard-multiples", ",".join(f"{k:g}" for k in GUARD_MULTIPLES),
            "--format", "json",
        ]
        if deterministic:
            argv.append("--deterministic")
        else:
            argv += ["--trials", str(trials), "--seed", str(seed)]
        return {
            "kind": "isi", "argv": argv, "format": "json", "d": d, "tp": tp, "seed": seed,
            "trials": 1 if deterministic else trials, "deterministic": deterministic,
            "items": 1 if deterministic else trials,
        }

    def warmup_ops(self) -> list:
        """Operations run before the first timed one.

        Sweep: one small sweep per (mode, format).  Oracle: one fading-free
        run per survey delay spread, which calibrates every grid the timed
        operations can use, plus one small faded run.
        """
        if self.name == SWEEP:
            rng = self.rng(_WARMUP_KEY)
            return [
                self.sweep_spec(rng, mode, fmt, 200)
                for mode in SWEEP_MODES
                for fmt in ("csv", "json")
            ]
        if self.name == ISI:
            tp = self.surveys.pulse_tp[0]
            ops = [self.isi_spec(d, tp, 1, 0, deterministic=True) for d in self.surveys.all_d]
            ops.append(self.isi_spec(self.surveys.all_d[0], tp, 10, self.seed, deterministic=False))
            return ops
        return []

    # -------------------------------------------------------------------- cli

    def _cli_op(self, cycle: int, slot: int) -> dict:
        kind = str(self.rng(cycle, _ORDER_KEY).permutation(list(CLI_KINDS))[slot])
        rng = self.rng(cycle, slot)
        s = self.surveys
        op = {"kind": "cli", "cli_kind": kind, "format": "json", "items": 1}
        if kind == "capacity-digital":
            fs = float(rng.choice(s.adc_fs))
            n = float(rng.choice((2.0, 4.0)))
            d = float(rng.choice(s.channel_d))
            order = int(rng.integers(2, 5))
            argv = ["capacity", "digital", "--fs", quantity(fs, "Hz"), "--nsampling", f"{n:g}",
                    "--delay-spread", quantity(d, "s"), "--mary", str(order)]
            op.update(model="digital", overhead=n / fs, d=d, factor=float(order - 1),
                      fs=fs, n=n, order=order)
        elif kind == "capacity-mixed":
            f = 1.0 / float(rng.choice(s.pulse_tp))
            d = float(rng.choice(s.antenna_d))
            order = int(rng.integers(2, 5))
            argv = ["capacity", "mixed", "--fcircuit", quantity(f, "Hz"),
                    "--delay-spread", quantity(d, "s"), "--mary", str(order)]
            op.update(model="mixed", overhead=1.0 / f, d=d, factor=float(order - 1),
                      f=f, order=order)
        elif kind == "capacity-binary":
            tp = float(rng.choice(s.pulse_tp))
            d = float(rng.choice(s.channel_d))
            argv = ["capacity", "binary", "--pulse-duration", quantity(tp, "s"),
                    "--delay-spread", quantity(d, "s")]
            op.update(model="binary", overhead=tp, d=d, factor=1.0, tp=tp)
        elif kind == "capacity-ideal":
            tp = float(rng.choice(s.pulse_tp))
            d = float(rng.choice(s.all_d))
            snr_db = float(rng.choice((3.0, 6.0, 10.0, 20.0)))
            argv = ["capacity", "ideal", "--pulse-duration", quantity(tp, "s"),
                    "--delay-spread", quantity(d, "s"), "--snr-db", f"{snr_db:g}"]
            snr = 10.0 ** (snr_db / 10.0)
            op.update(model="ideal", overhead=tp, d=d, factor=0.5 * float(np.log2(1.0 + snr)),
                      tp=tp, snr_db=snr_db)
        elif kind in ("table-iv", "table-vii"):
            which = kind.split("-")[1]
            fmt = "csv" if which == "iv" else "json"
            argv = ["table", which, "--check"]
            op.update(format=fmt, rows=9 if which == "iv" else 30)
        elif kind == "datasets":
            table, extra, fmt, rows = DATASET_QUERIES[int(rng.integers(len(DATASET_QUERIES)))]
            argv = ["datasets", "list", table, *extra]
            op.update(format=fmt, rows=rows)
        elif kind == "validate-isi":
            d = float(rng.choice(s.all_d))
            tp = float(rng.choice(s.pulse_tp))
            spec = self.isi_spec(d, tp, 1, 0, deterministic=True)
            spec.update(kind="cli", cli_kind=kind, items=1)
            return spec
        else:
            mode = str(rng.choice(list(SWEEP_MODES)))
            fmt = "csv" if cycle % 2 == 0 else "json"
            spec = self.sweep_spec(rng, mode, fmt, 200)
            spec.update(kind="cli", cli_kind=kind, items=1)
            return spec
        op["argv"] = argv + ["--format", op["format"]]
        return op
