"""`scripts/layer_times.py` runs and reports every layer it times.

The script is run by hand for before/after timings; here one round at the
smallest shape of each layer checks that it still runs against
the package and prints the JSON line it documents.
"""

import importlib.util
import json
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "layer_times.py")


def test_layer_times_prints_best_and_median_per_layer(capsys):
    spec = importlib.util.spec_from_file_location("layer_times", SCRIPT)
    layer_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_times)
    result = layer_times.main(["--rounds", "1", "--smallest"])
    assert json.loads(capsys.readouterr().out) == result
    assert set(result["mean_field_batch"]) == {"cubic 20x16 vs itself", "quadratic 88x128 vs 2048"}
    assert set(result["increments"]) == {"20x64"}
    assert set(result["euler_step"]) == {"20x16"}
    assert set(result["wasserstein_assignment"]) == {"64 same law", "64 shifted by 3"}
    assert set(result["sample_w2_1d"]) == {"4x200 vs 128"}
    for layer in ("mean_field_batch", "increments", "euler_step", "wasserstein_assignment",
                  "sample_w2_1d"):
        for times in result[layer].values():
            assert 0 < times["best"] <= times["median"]
