"""The scripts under `tools/` run on small inputs."""

import importlib.util
from pathlib import Path

from ifhv import hv_set

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_hv_shapes_prints_one_line_per_shape(capsys):
    spec = importlib.util.spec_from_file_location("hv_shapes", TOOLS / "hv_shapes.py")
    hv_shapes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hv_shapes)
    assert hv_shapes.main(["--shape", "20,4", "--shape", "5,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line, (k, m) in zip(lines, [(20, 4), (5, 2)]):
        fields = dict(field.split("=") for field in line.split())
        best_of = str(hv_shapes.REPEAT)
        assert (fields["k"], fields["m"], fields["best_of"]) == (str(k), str(m), best_of)
        assert float(fields["seconds"]) >= 0.0
        front = hv_shapes.sphere_front(k, m)
        assert float(fields["hv"]) == hv_set(front, (0.0,) * m)
        assert 0.0 < float(fields["hv"]) < 1.0  # within the unit cube
