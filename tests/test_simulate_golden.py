"""Golden random stream of the Monte Carlo engine.

Each case runs `simulate_at` on a small fixed input and compares every
`SimResult` field with a recorded value: counters exactly, floats by
`float.hex`. A change to the engine that draws any uniform in another
order or size, or rounds any step differently, fails here. The records
hold for IEEE double arithmetic with numpy's float64 exp, expm1 and log1p;
regenerate them only for a change that is meant to move the stream.
"""

import dataclasses

import pytest

from divopt import (
    Hybrid,
    Liquidation,
    ModelParams,
    PeriodicBarrier,
    PeriodicZero,
    SimConfig,
    SimResult,
    Strategy,
    simulate_at,
    solve_roots,
)

POS = ModelParams(mu=1.0, sigma=0.3, chi=0.01, beta=0.9, gamma=1.0, delta=0.15)
NEG = ModelParams(mu=-1.0, sigma=0.3, chi=0.15, beta=0.7, gamma=1.0, delta=0.15)
# the solved strategies at POS and NEG, as literals so that a solver change
# cannot move the records
HYB = Hybrid(0.3065903431447673, 0.3844202263851442, 1.3290615717994223)
LIQ = Liquidation(0.316235554205483, 2.6622431975813416)

# name: (params, strategy, starts, paths, seed, truncation tol)
CASES = {
    "hybrid": (POS, HYB, (0.5, HYB.a_p, HYB.a_c, HYB.b + 1.0), 120, 405, 1e-3),
    "periodic_barrier": (POS, PeriodicBarrier(1.0), (0.5, 1.5), 120, 7, 1e-3),
    # 2 parts of paths per run, so the part loop is pinned too
    "periodic_zero": (NEG, PeriodicZero(), (0.25, 0.5, 1.0, 2.0), 4200, 404, 1e-6),
    "liquidation": (
        NEG, LIQ, (0.0, 0.15, 0.8 * LIQ.b1, 0.5 * (LIQ.b1 + LIQ.b2), LIQ.b2 + 0.5),
        400, 406, 1e-6,
    ),
    "bounded_band": (POS, Strategy(0.3, 0.4, 1.3, 2.0), (1.0, 2.5, 4.0), 120, 5, 1e-3),
}
CASE_KEYS = [(name, anti) for name in CASES for anti in (True, False)]


def _field(value) -> str:
    return value.hex() if isinstance(value, float) else str(value)


def _records(name: str, antithetic: bool) -> list[str]:
    params, strategy, x0s, n_paths, seed, tol = CASES[name]
    cfg = SimConfig(n_paths=n_paths, seed=seed, antithetic=antithetic, truncation_tol=tol)
    results = simulate_at(params, solve_roots(params), strategy, cfg, x0s)
    return [" ".join(_field(getattr(r, f.name)) for f in dataclasses.fields(SimResult))
            for r in results]


GOLDEN = {
    ('hybrid', True): [
        '0x1.0000000000000p-1 0x1.83422ae089382p+2 0x1.f83d7c647233dp-8 0x1.5555555555555p-5 '
        '5279 3487 120 8988 5496 87',
        '0x1.39f2d1a44e05ap-2 0x1.788c6227f078ep+2 0x1.ef5eef06ae25dp-8 0x1.5555555555555p-5 '
        '5259 3469 120 8954 5480 87',
        '0x1.89a574b0fafe5p-2 0x1.7cd3c484f1d5bp+2 0x1.014870d8dc391p-7 0x1.5555555555555p-5 '
        '5273 3477 120 8974 5492 87',
        '0x1.2a1eb0889fdb2p+1 0x1.ec35bcd759ef6p+2 0x1.e7fedff2b13e7p-8 0x1.5555555555555p-5 '
        '5282 3597 120 8981 5499 88',
    ],
    ('hybrid', False): [
        '0x1.0000000000000p-1 0x1.7fd82a8149c6fp+2 0x1.0157b8a10cc66p-5 0x1.ddddddddddddep-5 '
        '5165 3455 120 8864 5402 88',
        '0x1.39f2d1a44e05ap-2 0x1.74fba98fbc03bp+2 0x1.fe4e1754e540ap-6 0x1.ddddddddddddep-5 '
        '5156 3444 120 8849 5398 88',
        '0x1.89a574b0fafe5p-2 0x1.7964cd39083cbp+2 0x1.002143f707523p-5 0x1.ddddddddddddep-5 '
        '5160 3446 120 8847 5394 89',
        '0x1.2a1eb0889fdb2p+1 0x1.e8b9e4bcffe64p+2 0x1.00dd24e5d573ep-5 0x1.ddddddddddddep-5 '
        '5161 3567 120 8851 5397 88',
    ],
    ('periodic_barrier', True): [
        '0x1.0000000000000p-1 0x1.57f98543e78e2p+2 0x1.e4b5023246ee9p-7 0x0.0p+0 '
        '5340 0 120 5621 5621 62',
        '0x1.8000000000000p+0 0x1.8e95b530d5bb7p+2 0x1.266d383515123p-6 0x0.0p+0 '
        '5400 0 120 5621 5621 62',
    ],
    ('periodic_barrier', False): [
        '0x1.0000000000000p-1 0x1.5784161ec3ca4p+2 0x1.2592d1f6ccbf7p-6 0x0.0p+0 '
        '5374 0 120 5663 5663 65',
        '0x1.8000000000000p+0 0x1.8e0301fa4d734p+2 0x1.4da4c9f2109c6p-6 0x0.0p+0 '
        '5445 0 120 5663 5663 65',
    ],
    ('periodic_zero', True): [
        '0x1.0000000000000p-2 0x1.344f6bfe3149ep-5 0x1.215e23a1a521cp-10 0x1.0000000000000p+0 '
        '935 0 4200 4200 935 1',
        '0x1.0000000000000p-1 0x1.e85833427baa4p-4 0x1.053e960e6aa45p-9 0x1.0000000000000p+0 '
        '1652 0 4200 4200 1652 1',
        '0x1.0000000000000p+0 0x1.6fc256e1b8c30p-2 0x1.02fca420c1d83p-8 0x1.0000000000000p+0 '
        '2532 0 4200 4200 2532 1',
        '0x1.0000000000000p+1 0x1.0fdd17bb4f091p+0 0x1.f6c16da610597p-8 0x1.0000000000000p+0 '
        '3564 0 4200 4200 3564 1',
    ],
    ('periodic_zero', False): [
        '0x1.0000000000000p-2 0x1.41bda4a65d9cap-5 0x1.4e09e5455112ap-10 0x1.0000000000000p+0 '
        '948 0 4200 4200 948 1',
        '0x1.0000000000000p-1 0x1.e9d43e3de3282p-4 0x1.64c2006aaefeep-9 0x1.0000000000000p+0 '
        '1627 0 4200 4200 1627 1',
        '0x1.0000000000000p+0 0x1.7444a300feda2p-2 0x1.724c79a0e2c19p-8 0x1.0000000000000p+0 '
        '2551 0 4200 4200 2551 1',
        '0x1.0000000000000p+1 0x1.0f66c52b125d1p+0 0x1.551cdfc55170fp-7 0x1.0000000000000p+0 '
        '3558 0 4200 4200 3558 1',
    ],
    ('liquidation', True): [
        '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 '
        '0 0 400 0 0 0',
        '0x1.3333333333333p-3 0x1.fc81d24e87661p-7 0x1.032d8d5c2a947p-9 0x1.0000000000000p+0 '
        '50 9 400 400 50 1',
        '0x1.030f670a105f2p-2 0x1.52cbad80d58b2p-5 0x1.5997cc7e04005p-9 0x1.0000000000000p+0 '
        '67 87 400 400 67 1',
        '0x1.7d3ecaaf60ae2p+0 0x1.c8f18228ba8d4p-1 0x1.225b94f39da50p-57 0x1.0000000000000p+0 '
        '0 400 400 0 0 0',
        '0x1.94c46295ce1f4p+1 0x1.08668e0455191p+1 0x1.4b136670a64edp-6 0x1.0000000000000p+0 '
        '149 251 400 400 149 1',
    ],
    ('liquidation', False): [
        '0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 '
        '0 0 400 0 0 0',
        '0x1.3333333333333p-3 0x1.0144ac9ae256ap-6 0x1.05debf6a82649p-9 0x1.0000000000000p+0 '
        '57 8 400 400 57 1',
        '0x1.030f670a105f2p-2 0x1.51a3c2feee4fap-5 0x1.a7a21ad23ad03p-9 0x1.0000000000000p+0 '
        '69 87 400 400 69 1',
        '0x1.7d3ecaaf60ae2p+0 0x1.c8f18228ba8d4p-1 0x1.9a1ceb13f2860p-58 0x1.0000000000000p+0 '
        '0 400 400 0 0 0',
        '0x1.94c46295ce1f4p+1 0x1.0a0da2d3cb3bbp+1 0x1.fafc4a3b7244ap-6 0x1.0000000000000p+0 '
        '153 247 400 400 153 1',
    ],
    ('bounded_band', True): [
        '0x1.0000000000000p+0 0x1.9642138b5012bp+2 0x1.1f7ee9944675cp-4 0x1.5555555555555p-4 '
        '5164 3594 120 9011 5407 92',
        '0x1.4000000000000p+1 0x1.e98a38dbe27a4p+2 0x1.158fa399080bfp-4 0x1.5555555555555p-4 '
        '5174 3449 120 8875 5416 90',
        '0x1.0000000000000p+2 0x1.1e8cb8edd2e66p+3 0x1.1ee30b2818f24p-4 0x1.5555555555555p-4 '
        '5172 3452 120 8878 5416 90',
    ],
    ('bounded_band', False): [
        '0x1.0000000000000p+0 0x1.98b560733d632p+2 0x1.8395478579247p-5 0x1.bbbbbbbbbbbbcp-4 '
        '5065 3569 120 8873 5291 88',
        '0x1.4000000000000p+1 0x1.eaafc0406a86dp+2 0x1.afc32117fb7b3p-5 0x1.bbbbbbbbbbbbcp-4 '
        '5071 3410 120 8718 5295 87',
        '0x1.0000000000000p+2 0x1.1f1a50c7ccabcp+3 0x1.02afb3f4bb59ep-4 0x1.bbbbbbbbbbbbcp-4 '
        '5074 3413 120 8726 5300 87',
    ],
}


@pytest.mark.parametrize("name, antithetic", CASE_KEYS)
def test_stream_matches_the_record(name, antithetic):
    got, want = _records(name, antithetic), GOLDEN[name, antithetic]
    names = [f.name for f in dataclasses.fields(SimResult)]
    for x0, g, w in zip(CASES[name][2], got, want):
        assert dict(zip(names, g.split())) == dict(zip(names, w.split())), x0
    assert len(got) == len(want)
