"""Tests for kernel backend selection and compiled/pure agreement.

The compiled-backend tests do not assume an extension in the tree that
``riordan`` is imported from: the ``built_lib`` fixture builds the
checkout into a temporary directory, and those tests run against that
build.
"""

import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest

import riordan
from riordan import RiordanMatrix, Series, geometric
from riordan import _purekernels as pure
from riordan._backend import BACKEND, backend_name

ROOT = Path(__file__).resolve().parent.parent
FASTKERNELS = "_fastkernels" + sysconfig.get_config_var("EXT_SUFFIX")


@pytest.fixture(scope="session")
def built_lib(tmp_path_factory):
    """Build the checkout with ``setup.py`` and return the build's lib dir.

    Everything the build writes lands under a pytest temp dir, so the
    checkout stays clean.  Skips only when a build prerequisite is
    missing; a build that finishes without the extension (it is
    ``optional``, so a failed compile does not fail the build) fails.
    """
    pytest.importorskip("setuptools")
    cc = sysconfig.get_config_var("CC") or ""
    if not cc.split() or shutil.which(cc.split()[0]) is None:
        pytest.skip(f"no C compiler on PATH: sysconfig CC is {cc!r}")
    include = Path(sysconfig.get_paths()["include"])
    if not (include / "Python.h").is_file():
        pytest.skip(f"no Python.h under {include}")
    top = tmp_path_factory.mktemp("build")
    lib = top / "lib"
    out = subprocess.run(
        [
            sys.executable, "setup.py", "-q",
            "egg_info", "--egg-base", str(top),
            "build", "--build-base", str(top / "tmp"), "--build-lib", str(lib),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert out.returncode == 0, f"setup.py build failed:\n{out.stderr}"
    assert (lib / "riordan" / FASTKERNELS).is_file(), (
        f"setup.py build produced no riordan/{FASTKERNELS}:\n{out.stderr}"
    )
    return lib


@pytest.fixture(scope="session")
def fast(built_lib):
    """The built extension module, loaded without touching ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        "riordan._fastkernels", built_lib / "riordan" / FASTKERNELS
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def built_env(built_lib):
    """Environment importing ``riordan`` from the build, RIORDAN_PURE unset."""
    env = dict(os.environ)
    env.pop("RIORDAN_PURE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(built_lib), env.get("PYTHONPATH")])
    )
    return env


class TestSelection:
    def test_backend_name(self):
        assert backend_name() == BACKEND
        assert BACKEND in ("compiled", "pure")
        assert riordan.backend_name is backend_name

    def test_compiled_extension_is_available(self, built_lib):
        # A built package selects the compiled kernels; only an explicit
        # RIORDAN_PURE opt-out should disable them.
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import riordan; print(riordan.backend_name()); "
                "print(riordan.__file__)",
            ],
            capture_output=True,
            text=True,
            env=built_env(built_lib),
            cwd=ROOT,
        )
        assert out.returncode == 0, out.stderr
        name, path = out.stdout.split()
        assert Path(path).is_relative_to(built_lib)
        assert name == "compiled"

    def test_env_override_forces_pure(self, built_lib):
        # The built tree holds the extension, so "pure" here can only
        # come from the RIORDAN_PURE opt-out.
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import riordan; print(riordan.backend_name()); "
                "print(riordan.__file__)",
            ],
            capture_output=True,
            text=True,
            env=dict(built_env(built_lib), RIORDAN_PURE="1"),
            cwd=ROOT,
        )
        assert out.returncode == 0, out.stderr
        name, path = out.stdout.split()
        assert Path(path).is_relative_to(built_lib)
        assert name == "pure"

    def test_pure_backend_computes_same_triangle(self, built_lib):
        script = (
            "from riordan import RiordanMatrix, backend_name, geometric\n"
            "from riordan.render import format_triangle\n"
            "assert backend_name() == 'pure'\n"
            "m = RiordanMatrix(geometric(8), geometric(8))\n"
            "print(format_triangle(m.triangle(), 'csv'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(built_env(built_lib), RIORDAN_PURE="1"),
            cwd=ROOT,
        )
        assert out.returncode == 0, out.stderr
        from riordan.render import format_triangle

        here = format_triangle(
            RiordanMatrix(geometric(8), geometric(8)).triangle(), "csv"
        )
        assert out.stdout.strip() == here


def random_coeffs(rng, n, unit_lead=False, zero_lead=False):
    out = [
        Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)
    ]
    if unit_lead:
        out[0] = Fraction(1)
    if zero_lead:
        out[0] = Fraction(0)
        out[1] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return out


class TestKernelAgreement:
    N = 24

    def setup_method(self):
        self.rng = random.Random(97)

    def test_mul(self, fast):
        for _ in range(8):
            a = random_coeffs(self.rng, self.N)
            b = random_coeffs(self.rng, self.N)
            assert fast.mul(a, b, self.N) == pure.mul(a, b, self.N)

    def test_div(self, fast):
        for _ in range(8):
            a = random_coeffs(self.rng, self.N)
            b = random_coeffs(self.rng, self.N, unit_lead=True)
            assert fast.div(a, b, self.N) == pure.div(a, b, self.N)

    def test_div_by_zero_constant(self, fast):
        a = random_coeffs(self.rng, 6)
        b = random_coeffs(self.rng, 6, zero_lead=True)
        with pytest.raises(
            ZeroDivisionError, match="zero constant term"
        ):
            fast.div(a, b, 6)
        with pytest.raises(
            ZeroDivisionError, match="zero constant term"
        ):
            pure.div(a, b, 6)

    def test_compose(self, fast):
        for _ in range(6):
            a = random_coeffs(self.rng, self.N)
            b = random_coeffs(self.rng, self.N, zero_lead=True)
            assert fast.compose(a, b, self.N) == pure.compose(a, b, self.N)

    def test_compose_guard(self, fast):
        a = random_coeffs(self.rng, 6)
        b = random_coeffs(self.rng, 6, unit_lead=True)
        for mod in (fast, pure):
            with pytest.raises(ValueError, match="zero constant term"):
                mod.compose(a, b, 6)

    def test_revert(self, fast):
        for _ in range(6):
            f = random_coeffs(self.rng, self.N, zero_lead=True)
            assert fast.revert(f, self.N) == pure.revert(f, self.N)

    def test_revert_round_trip(self, fast):
        f = random_coeffs(self.rng, 16, zero_lead=True)
        r = fast.revert(f, 16)
        x = [Fraction(0), Fraction(1)] + [Fraction(0)] * 14
        assert fast.compose(f, r, 16) == x

    def test_revert_guards(self, fast):
        for mod in (fast, pure):
            with pytest.raises(ValueError, match="zero constant term"):
                mod.revert([Fraction(1), Fraction(1)], 2)
            with pytest.raises(
                ZeroDivisionError, match="invertible linear coefficient"
            ):
                mod.revert([Fraction(0), Fraction(0), Fraction(1)], 3)


class TestBenchmarkHarness:
    def test_tiny_run_reports_speedup(self, built_lib):
        out = subprocess.run(
            [
                sys.executable,
                str(ROOT / "benchmarks" / "bench_kernels.py"),
                "--size",
                "32",
                "--repeat",
                "1",
            ],
            capture_output=True,
            text=True,
            env=built_env(built_lib),
            cwd=ROOT,
        )
        assert out.returncode == 0, out.stderr
        lines = [l for l in out.stdout.splitlines() if "pure" in l]
        assert len(lines) >= 4  # mul, div, compose, revert at least
        assert all("compiled" in l and l.rstrip().endswith("x") for l in lines)

    def test_missing_extension_exits_2(self):
        # Block the extension import rather than rely on src/ lacking one:
        # an in-place build (`setup.py build_ext --inplace`, or setuptools'
        # editable install) puts the extension into src/riordan/.
        bench = str(ROOT / "benchmarks" / "bench_kernels.py")
        script = (
            "import runpy, sys\n"
            "sys.modules['riordan._fastkernels'] = None\n"
            "sys.argv = ['bench_kernels.py']\n"
            f"runpy.run_path({bench!r}, run_name='__main__')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.count("\n") == 1
        assert "riordan._fastkernels" in out.stderr
