"""Time one set-up in a fresh interpreter: import homlkit and load bundles.

    python3 perfbench/setup_probe.py SRC_DIR '{"imports": [...], "variants": [[id, params], ...]}'

Prints the seconds taken. The interpreter's own start-up is not included.
"""

import importlib
import json
import sys
import time


def main() -> None:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import homlkit.theories

    for module in spec["imports"]:
        importlib.import_module(module)
    for bundle_id, params in spec["variants"]:
        homlkit.theories.load_bundle(bundle_id, **params)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
