"""Session-wide measurements shared by the claims table and the golden
manifest.

:class:`Results` runs each measurement at most once per session and
writes its payload to ``benchmarks/results/<name>.json``.
``test_paper_claims.py`` checks the paper's claims on the payloads;
``test_golden.py`` pins the bytes of the files and of
``python -m repro all``, whose figures reuse the session's slices.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Callable, Dict, Iterator, Tuple
from unittest import mock

import pytest

import ablations
from repro.figures import SLICES, figure_numbers
from repro.workloads import EtcGenerator

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "results",
)

#: Fig. 8's claims sample more GETs than ``python -m repro fig8``.
FIG8_SAMPLES = 50_000


def etc_hit_ratio() -> float:
    """The §VI-E setup's steady GET hit ratio (cache-friendliness)."""
    return EtcGenerator().expected_hit_ratio(
        model_keys=50_000, model_requests=200_000
    )


#: Artifact name -> measurement returning its JSON payload.
MEASUREMENTS: Dict[str, Callable[[], Any]] = {
    "fig1": lambda: figure_numbers("fig1"),
    "rtt": lambda: figure_numbers("rtt"),
    "fig5": lambda: figure_numbers("fig5"),
    "fig6": lambda: figure_numbers("fig6"),
    "fig7": lambda: figure_numbers("fig7"),
    "fig8": lambda: {
        **figure_numbers("fig8", samples=FIG8_SAMPLES),
        "hit_ratio": etc_hit_ratio(),
    },
    "fig9": lambda: figure_numbers("fig9"),
    "ablation_frame_size": ablations.frame_size,
    "ablation_credit_depth": ablations.credit_depth,
    "ablation_loss": ablations.loss,
    "ablation_bonding": ablations.bonding,
    "ablation_hbm": ablations.hbm,
    "ablation_integrated_soc": ablations.integrated_soc,
    "ablation_fabric": ablations.fabric,
    "ablation_numa": ablations.numa,
    "ablation_qos": ablations.qos,
    "ablation_packet_fanin": ablations.packet_fanin,
}


class Results(dict):
    """Measurements by artifact name, each run and saved on first use."""

    def __init__(self) -> None:
        super().__init__()
        #: ``(slice name, kwargs JSON)`` -> that figure slice's numbers.
        self.slices: Dict[Tuple[str, str], Any] = {}

    @contextlib.contextmanager
    def sharing_slices(self) -> Iterator[None]:
        """Serve each figure slice call (a pure function of its kwargs)
        at most once per session, whichever figure code makes it."""

        def shared(name: str, compute: Callable[..., Any]):
            def call(**kwargs: Any) -> Any:
                key = (name, json.dumps(kwargs, sort_keys=True))
                if key not in self.slices:
                    self.slices[key] = compute(**kwargs)
                return self.slices[key]

            return call

        with mock.patch.dict(
            SLICES, {name: shared(name, fn) for name, fn in SLICES.items()}
        ):
            yield

    def __missing__(self, name: str) -> Any:
        with self.sharing_slices():
            payload = self[name] = MEASUREMENTS[name]()
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as handle:
            handle.write(self.text(name))
        return payload

    def text(self, name: str) -> str:
        """The exact text of ``benchmarks/results/<name>.json``."""
        return json.dumps(self[name], indent=2, sort_keys=True)


@pytest.fixture(scope="session")
def results() -> Results:
    return Results()
