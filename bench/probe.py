"""Set-up probe, run in a fresh process by the benchmark.

Times importing ``epchain`` plus one tiny warm-up call into each layer
(lazy scipy imports included) and prints ``{"setup_s": ...}``.

    python3 bench/probe.py <checkout>/src <scratch dir>
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src, scratch = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import epchain
    from epchain import chain, cli, dynamics, entanglement, spectral, sweeps

    if Path(epchain.__file__).resolve().parent != src / "epchain":
        print(f"probe: imported epchain from {epchain.__file__}, not {src}", file=sys.stderr)
        return 2
    m = chain.build_bdg_matrix(chain.ChainSpec.uniform(2, g=0.5, j=1.0))
    spectral.detect_eps(m)
    spectral.spectrum_report(m)
    state = dynamics.evolve(dynamics.initial_state(2), chain.quadrature_generator(m), 0.1)
    entanglement.entanglement_result(state, entanglement.Bipartition.one_vs_rest(2))
    sweeps.write_rows(scratch / "probe.csv", ["x"], [[0.5]])
    cli.build_parser()
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
