"""The benchmark's workloads: which studies each one runs and what they must produce.

A workload is a fixed sequence of studies. A study is either one CLI run
(argv without --seed and --output-dir, which the worker appends) or the
criterion-7 kernel sequence called through the library. Every study carries
the outcome it must reach; checks.py compares against it.

Three sizes exist. "bench" is what the timed runs use: each workload keeps
the character of its README-size study (which layer does the work) at a size
whose pass fits several times into one run. "readme" is the README arguments
themselves, for reproducing the figures the sizing came from; a spectral-2d
pass takes about two minutes there and the README showcase ends
not-stabilized at this commit. "tiny" only exercises the code paths, for the
benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass

SIZES = ("bench", "readme", "tiny")
WORKLOADS = ("spectral-2d", "spectral-1d", "dense-kernel", "sampling")

# Oracles named by Expect.oracle; checks.py implements them.
OSCILLATOR = "oscillator"      # lowest eigenvalues within 1% of 1, 3, 5, 7, 9
DISC_AREA = "disc-area"        # |{x1^2 + x2^2 < 4}| = 4 pi within 3 std errors
KERNEL_BOUNDS = "kernel-bounds"  # every criterion-7 bound holds


@dataclass(frozen=True)
class Expect:
    """The outcome a study must reach."""

    exit_code: int = 0
    verdict: str | None = None
    oracle: str | None = None


@dataclass(frozen=True)
class Study:
    """One step of a workload: a CLI argv, or the kernel sequence on a grid."""

    name: str
    expect: Expect
    argv: tuple = ()
    kernel_grid: tuple = ()   # (half_width, spacing) of the criterion-7 grid

    @property
    def subcommand(self) -> str:
        return self.argv[0] if self.argv else ""


def _spectrum(potential, nu, L, h, k=5, max_iters=None):
    argv = ("spectrum", "--potential", potential, "--nu", str(nu),
            "--L", L, "--h", str(h), "--k", str(k))
    if max_iters is not None:
        argv += ("--max-iters", str(max_iters))
    return argv


def _cross_2d(size):
    # README showcase. At "bench" size the box pair (3, 4) is too small for
    # the cross-valley eigenfunctions, so the correct verdict there is
    # not-stabilized (drift about 18%); the README pair (6, 8) should
    # stabilize and is the known failure at this commit.
    L, h, verdict = {"bench": ("3,4", 0.1, "not-stabilized"),
                     "readme": ("6,8", 0.1, "stabilized"),
                     "tiny": ("1.5,2", 0.25, "not-stabilized")}[size]
    return (Study("spectrum x1^2*x2^2", Expect(verdict=verdict),
                  _spectrum("x1^2*x2^2", 2, L, h)),)


def _oscillator_1d(size):
    L, h, k = {"bench": ("10,20", 0.04, 5), "readme": ("10,20", 0.02, 5),
               "tiny": ("5,10", 0.1, 3)}[size]
    return (Study("spectrum x1^2", Expect(verdict="stabilized", oracle=OSCILLATOR),
                  _spectrum("x1^2", 1, L, h, k=k, max_iters=900)),)


def _dense_kernel(size):
    L, h, grid = {"bench": ("4", 0.16, (5.75, 0.25)),
                  "readme": ("4", 0.1, (8.0, 0.25)),
                  "tiny": ("2", 0.25, (2.0, 0.25))}[size]
    common = ("--potential", "x1^2*x2^2", "--M", "1", "--L", L, "--h", str(h))
    return (
        Study("heat-diagnostics", Expect(), ("heat-diagnostics",) + common),
        Study("kernel-power", Expect(), ("kernel-power",) + common + ("--R", "1")),
        Study("criterion-7 kernels", Expect(oracle=KERNEL_BOUNDS), kernel_grid=grid),
    )


def _sampling(size):
    strip, cross, area, trials = {"bench": (40_000, 60_000, 1_000_000, 500),
                                  "readme": (100_000, 120_000, 1_000_000, 500),
                                  "tiny": (5_000, 5_000, 10_000, 20)}[size]
    thin = ("--nu", "2", "--M", "1", "--r", "2", "--radii", "10,20,40,80")
    return (
        Study("thinness x1^2", Expect(verdict="divergent-evidence"),
              ("thinness", "--potential", "x1^2") + thin + ("--budget", str(strip))),
        Study("thinness x1^2*x2^2", Expect(verdict="convergent-evidence"),
              ("thinness", "--potential", "x1^2*x2^2") + thin + ("--budget", str(cross))),
        Study("sublevel disc", Expect(oracle=DISC_AREA),
              ("sublevel", "--potential", "x1^2+x2^2", "--M", "4", "--R", "3",
               "--budget", str(area))),
        Study("inequalities", Expect(),
              ("inequalities", "--trials", str(trials), "--dim", "6")),
    )


_BUILDERS = {
    "spectral-2d": _cross_2d,
    "spectral-1d": _oscillator_1d,
    "dense-kernel": _dense_kernel,
    "sampling": _sampling,
}


def studies(workload: str, size: str = "bench") -> tuple:
    """The studies of `workload` at `size`, in the order a pass runs them."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    return _BUILDERS[workload](size)
