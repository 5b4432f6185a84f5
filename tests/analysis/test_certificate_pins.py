"""Every certificate the repository emits, pinned byte for byte.

The committed verdict tests pin which rows a design defends; these pin
the rest of each certificate too -- rules, evidence, envelopes, layout
-- as the SHA-256 of its canonical JSON (sorted keys, no spaces).  The
digests cover the 24 sweep designs (through :func:`certify_all`, which
shares verdicts between PWC twins, and through :func:`certify` alone),
the three flat Table 4 designs on the gate's partitioned layout and the
refill leg's leakage design.  Certifier speed-ups must leave every one
unchanged.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.ablations.hierarchy import leakage_spec, sweep_specs
from repro.analysis.certify import certify, certify_all
from repro.security.benchgen import layout_for_spec
from repro.security.evaluate import table4_spec
from repro.tlb import TLBKind

SWEEP_DIGESTS = {
    "SA+SA": "63fdd3f534622e01d6e85655c3af40591447947d0345a5bcbdbf9ca9067fd85e",
    "SA+SA+pwc": "f31f099ab518a299db3bfeeb536a37a38cf2a9b0ab05fcc0002921a7aaf80661",
    "SA+SP": "cb1bd873a2b148fb0c5855068368ee996dacd32e5aa66fc2828ac0668ab9c8ec",
    "SA+SP+pwc": "26e088d1cf98788a021cf39108e3161edac2d799ee0b82071c1f2a6fdd97dc64",
    "SA+RF": "ca5b15f40f67a886dd8797bbaa4f256489da150274f0ef8358f9d85e56ada885",
    "SA+RF+pwc": "2f2e8171e8a89086630f9113ea78cf07cf3a54b802ffa7c93bfa5265859cee60",
    "SA": "9c7218c7bb1b072f6eaf9c353d57ac7ea993975110f6400c4cfdbad5e00d6828",
    "SA+pwc": "cd2be50534c6e3754c2fcab776bb6066e9736f4b212e0cdc08d070783c2e9fe1",
    "SP+SA": "d9624af1d4743f92941af59761d683156b76f5f5552967827c8b9b8f8315ffe4",
    "SP+SA+pwc": "4014461b07ba96574ddc7502ed71cfeaf530e1091e46027a48c2915e97168fe9",
    "SP+SP": "7c571c8b0824198e5b66aab234f91bbdc4e0f3ff91230f3dad2cb3aeb7a5468e",
    "SP+SP+pwc": "10a6b3af259f6abcc63fde52b0f23e8867290b044fa69b8905b87d78ea1d7de7",
    "SP+RF": "de8e7f39d32dda9ef50d4ed428471ef2137d1f6b1194c6aa24af7e68dc7cd1e1",
    "SP+RF+pwc": "79fd36c6ad25d61a3da7dda3f72cf7f90e95331a3192f843819cd1912941ff71",
    "SP": "482f021757bdae478e0cf8cc6b53972665126bda87efcb0bec899586f16c1056",
    "SP+pwc": "7fe734377badc06fab14203e3c34f1244f89dd5e36edb0e10acf09454b10035d",
    "RF+SA": "5052465e023025cf95c72147dbd80bf0ee4bd88abad16732ea27bb289fddab44",
    "RF+SA+pwc": "02f6341befb077d1c842b68a369abd6705443f48aa91b554ad4d030cde7264ae",
    "RF+SP": "3842b35744cda0427690648d7ec4ce328285ff6baaf721d44f343e372d157348",
    "RF+SP+pwc": "4ba6b2901b12bfb4c520da3889acb79e85c5e22ec69303c48bc00b2713620942",
    "RF+RF": "5b16fdf275437271404478f8d2b074db203f9ac13706e5f6189c27fdd53634d9",
    "RF+RF+pwc": "1c43e9336f642da6a6fccd18d0a7f809b7123564e96dbf80e21b3f2a2a1bada9",
    "RF": "1493d237607786d9f4eda0145d0c4fafb1540f43632c307e52031624c42df11e",
    "RF+pwc": "eded48dc96faec89e9f2cb1e38a515c217569b8dde244f996d2940aee6c3d4d3",
}

#: The flat leg's certificates: ``table4_spec(kind)`` on its
#: partitioned-primes layout.
FLAT_DIGESTS = {
    "SA": "3f719ad9a913984e66ad02ea1f5f63b6508ef28afdcb2bd3d85a06ef4d14f23c",
    "SP": "62ecd2ab341cdcf01f6ea476d4255b5898127548567a9e3a36fae4dc1ff8f581",
    "RF": "531a16c80eca0165067210620038805d86c2ebee9bb368162e12087b73a621b5",
}

#: ``leakage_spec()``, the refill leg's design.
LEAKAGE_DIGEST = (
    "a7570a4a60f1ec8566edb6a1ada44deaf0c4c250e575ee1dc1edfb0286b1662c"
)

SPECS = sweep_specs()


def digest(certificate) -> str:
    text = json.dumps(
        certificate.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_certify_all_matches_every_sweep_pin():
    certificates = certify_all(SPECS)
    assert [c.label for c in certificates] == [s.label() for s in SPECS]
    assert {c.label: digest(c) for c in certificates} == SWEEP_DIGESTS


@pytest.mark.parametrize("spec", SPECS, ids=[s.label() for s in SPECS])
def test_certify_matches_the_sweep_pin(spec):
    assert digest(certify(spec)) == SWEEP_DIGESTS[spec.label()]


@pytest.mark.parametrize("kind", [TLBKind.SA, TLBKind.SP, TLBKind.RF])
def test_flat_certificate(kind):
    spec = table4_spec(kind)
    certificate = certify(spec, layout=layout_for_spec(spec, True))
    assert digest(certificate) == FLAT_DIGESTS[kind.value]


def test_leakage_certificate():
    assert digest(certify(leakage_spec())) == LEAKAGE_DIGEST
