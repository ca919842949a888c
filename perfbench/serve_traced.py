"""Run `nextpage.service.serve` with traced service internals.

    python3 perfbench/serve_traced.py MODEL_CSV SPANS_JSON

Mirrors `nextpage serve --model MODEL_CSV --port 0`, but first replaces the
service module's `predict`, `apply_event`, `model_to_csv` and
`PredictionService` names by traced stand-ins.  Each request line becomes a
`service.handle.<kind>` span whose children are the engine calls it made.
On SIGINT the server stops and the spans are written to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import nextpage.service as service_mod  # noqa: E402
from nextpage.config import EngineConfig  # noqa: E402
from nextpage.model import model_from_csv  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

KINDS = ("predict", "observe", "snapshot")


def traced_service_class(tracer: Tracer, base):
    class TracedPredictionService(base):
        def handle_line(self, line: str) -> str:
            try:
                kind = json.loads(line).get("kind")
            except (ValueError, AttributeError):
                kind = None
            name = f"service.handle.{kind if kind in KINDS else 'other'}"
            return tracer.call(name, super().handle_line, line)

    return TracedPredictionService


def main(argv: list[str]) -> int:
    model_path, spans_path = argv
    tracer = Tracer()
    targets = [
        (service_mod, "predict", "predictor.predict", None),
        (service_mod, "apply_event", "updates.apply_event", None),
        (service_mod, "model_to_csv", "service.snapshot", None),
    ]
    base = service_mod.PredictionService
    service_mod.PredictionService = traced_service_class(tracer, base)
    try:
        with patched(tracer, targets):
            text = Path(model_path).read_text(encoding="utf-8")
            model = tracer.call("model.model_from_csv", model_from_csv, text)
            service_mod.serve(model, EngineConfig(), port=0)
    finally:
        service_mod.PredictionService = base
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
