"""Property tests over the command line's edge inputs.

Fuzzed ``--gen`` specs, config files, model files and ``--nu`` values each end with a
documented exit code (0, 2 invalid input, 4 resource cap), and no
exception escapes ``main``; a transform that succeeds writes finite values.
A fuzzed flag value is passed as ``--flag=value``, so argparse never reads
one that starts with "-" as a flag.
"""

import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from specden.cli import main

_TARGET = ["--sigma", "0.2", "--delta", "0.25"]

_NUMBER_TEXT = (
    st.sampled_from(["nan", "inf", "-inf", "-0.5", "0", "1e-300", "0.1", "0.9", "junk", ""])
    | st.floats().map(repr)
    | st.integers(-5, 10**6).map(str)
)


def _run(*argv) -> tuple[int, list[float] | None]:
    """Exit code of one in-process command and its transform, if it wrote one."""
    with tempfile.TemporaryDirectory() as tmp:
        code = main([*argv, "--out", tmp])
        path = Path(tmp) / "transform.csv"
        if not path.exists():
            return code, None
        # past the "# key: value" header and the column names, one "frequency,value" row per line
        rows = [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]
    return code, [float(row.split(",")[1]) for row in rows]


_GEN_PARAM = (
    st.builds("gap={}".format, _NUMBER_TEXT)
    | st.builds("ground_weight={}".format, _NUMBER_TEXT)
    | st.builds("count={}".format, st.integers(-2, 3))
    | st.text(max_size=8)
)
_GEN_SPEC = st.builds(
    lambda kind, dim, params: f"{kind}:{dim}" + (":" + ",".join(params) if params else ""),
    st.sampled_from(["dense", "spiked", "gapped"]) | st.text(max_size=6),
    # small dims, dims whose dim x dim draw is past the cap, and junk
    st.integers(0, 64).map(str) | st.integers(8193, 10**12).map(str) | st.text(max_size=6),
    st.lists(_GEN_PARAM, max_size=3),
) | st.text(max_size=20)


@settings(max_examples=120, deadline=None)
@given(spec=_GEN_SPEC)
def test_fuzzed_gen_specs_end_with_a_documented_code(spec):
    code, _ = _run("estimate", "--method", "fejer", *_TARGET, f"--gen={spec}", "--seed", "1")
    assert code in (0, 2, 4)


_CONFIG_KEYS = ["sigma", "delta", "beta", "eta", "seed", "trials", "workers", "samples", "grid-spacing",
                "grid_spacing", "nu", "method", "model", "gen", "wavelength", ""]
_CONFIG_LINE = (
    st.builds("{} = {}".format, st.sampled_from(_CONFIG_KEYS), _NUMBER_TEXT | st.text(max_size=8))
    | st.text(max_size=12)
).map(str.encode) | st.binary(max_size=12)


@settings(max_examples=120, deadline=None)
@given(lines=st.lists(_CONFIG_LINE, max_size=6))
def test_fuzzed_config_files_end_with_a_documented_code(lines):
    # the fuzzed lines follow, and may override, a valid target; the flag picks
    # the fejer planner, which is cheap at every target
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_bytes(b"\n".join([b"sigma = 0.2", b"delta = 0.25", *lines]))
        code, _ = _run("plan", "--config", str(config), "--method", "fejer")
    assert code in (0, 2, 4)


@settings(max_examples=25, deadline=None)
@given(
    method=st.sampled_from(["fejer", "qfejer", "git", "jackson"]),
    nu=st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False),
)
# (nu - omega)^2 overflows in gaussian_eval, whose kernel value is 0 there; any warning fails
@example("git", 1e200)
def test_a_finite_nu_gives_finite_values_or_exits_2(method, nu):
    code, values = _run("transform", "--method", method, *_TARGET, "--gen", "gapped:8", "--seed", "11",
                        f"--nu={nu!r}")
    assert code in (0, 2)
    if code == 0:
        assert values and all(math.isfinite(v) for v in values)


_ENTRY = st.sampled_from(
    ["0", "0.5", "-1", "3", "1e308", "-1e308", "1e308j", "1e-320", "nan", "inf", "1j", "junk", ""]
) | st.floats().map(repr)


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from([["transform", "--method", "git"],
                             ["estimate", "--method", "fejer", "--seed", "1"]]),
    diagonal=st.lists(_ENTRY, min_size=2, max_size=2),
    off=_ENTRY,
    probe=st.sampled_from(["1 0", "0.6 0.8j", "0 1"]) | st.lists(_ENTRY, max_size=3).map(" ".join),
    noise=st.binary(max_size=4),
    at=st.integers(0, 60),
)
# entries whose sums, differences or norm overflow
@example(["transform", "--method", "git"], ["1e308", "-1"], "1e308", "0.6 0.8j", b"", 0)
@example(["transform", "--method", "git"], ["0", "0"], "1e308", "1 0", b"-", 8)
@example(["transform", "--method", "git"], ["0", "0"], "0", "0 1e308", b"", 0)
# eigenvalues past 2^1022, whose subnormal scale maps them just outside [-1, 1] unless clipped
@example(["transform", "--method", "git"], ["1.5e308", "-1.5e308"], "0", "0.6 0.8j", b"", 0)
@example(["estimate", "--method", "fejer", "--seed", "1"], ["1.5e308", "-1.5e308"], "0", "0.6 0.8j", b"", 0)
def test_fuzzed_model_files_end_with_a_documented_code(command, diagonal, off, probe, noise, at):
    # a real symmetric 2 x 2 model whose entries and probe are fuzzed, with raw
    # bytes spliced in at a fuzzed offset
    text = f"dim 2\n{diagonal[0]} {off}\n{off} {diagonal[1]}\n{probe}\n".encode()
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.txt"
        model.write_bytes(text[:at] + noise + text[at:])
        code, values = _run(*command, *_TARGET, "--model", str(model))
    assert code in (0, 2, 4)
    if values is not None:
        assert all(math.isfinite(v) for v in values)
