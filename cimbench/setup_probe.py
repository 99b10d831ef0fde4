"""Set-up probe: a fresh interpreter made ready for a warm first op.

Run as ``python3 setup_probe.py sweep|simulate``.  It imports the facade
from the checkout's ``src/`` and makes one minimal call of that kind, which
loads every module the facade imports lazily on its first call.  The
benchmark times the whole process, interpreter start-up included.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import repro.api as api  # noqa: E402

if sys.argv[1] == "sweep":
    api.sweep(api.SweepRequest(designs=("design-a",), models=("llama2-7b",),
                               precisions=("int8",), batches=(1,)))
else:
    api.simulate(api.SimulateRequest(llm="llama2-7b", rate=0.1, requests=1))
