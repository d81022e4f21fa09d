"""README's library example runs as written and draws what it says."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_and_its_trials_are_per_seed_histograms():
    names: dict = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(_library_example(), str(README), "exec"), names)
    lines = printed.getvalue().splitlines()
    assert len(lines) == 4
    assert "'grid_size': 64" in lines[0] and "'n_samples': 185" in lines[0]
    # the third line is the trials' worst deviation from the exact reference
    assert 0.0 < float(lines[2]) < 1.0
    fejer, model, budget, trials = (names[k] for k in ("fejer", "model", "budget", "trials"))
    # seeds=range(20) takes the batch path; each row is that seed's own histogram
    rows = [fejer.draw(model, budget, [seed])[0] for seed in range(20)]
    assert trials.shape == (20, 64)
    assert trials.tobytes() == np.array(rows).tobytes()
    assert trials[0].tobytes() == fejer.estimate(model, budget, seed=0).values.tobytes()
    # the contract report draws those 20 trials and checks each against the reference
    report = names["report"]
    assert report.n_trials == 20
    assert report.delta_v == float(lines[2])
    assert lines[3] == str(report.passed())
