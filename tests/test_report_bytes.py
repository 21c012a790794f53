"""Byte pins: the sha256 of stdout of `python -m gbl` for a fixed (config, seed).

A change that moves any printed bit of these reports fails here; one that is
meant to move them updates the digest and says which values moved.
"""
import hashlib
import subprocess
import sys

import pytest

PINS = {
    "certify --samples 2000":
        "447667cb8be09750d8100bdb0c6bcb35b27a9ce0855e62a059c220b03359cd3c",
    "certify --n 2 --m 2 --beta0 2.1 --samples 2000":
        "d624cf314d36290d1088036872fb20c5ba54b4d0b84051eeddf891d36b236197",
    "sweep-k0 --samples 2000":
        "0aa6bd5551de3dab894c38a7056363d821ca33d99bef8995b50d0ba5828dbf1d",
    "sweep-k0 --n 3 --m 1 --samples 2000":
        "23436ffeee1cad0f36552be66c9d95b880c444d992b6ba4230d176ca7fd02aa0",
    "lemmas --which es1 --samples 2000":
        "96a5b8eb26d4f339097c2ebc7cba775fca287e371b865cc0b80cde29286f59ac",
    "lemmas --which pair --samples 2000":
        "7d3dca9884804d6ad1757037930dc8cc255d06546e00db91c09045672e2f6098",
    "lemmas --which iii --samples 2000":
        "856acca594a6acd1c1b0ba0f583be15b6244952088269301903e5ae4aa8dc3cf",
    "lemmas --which iv --samples 2000":
        "ffed72a787ca1c78e82858845fdc76d8651923a03395db8ab87be8f87ea85ab9",
    "graph --example holomorphic_pair":
        "a992266b10d12dbf047d90890e6dcf0dcfaf15db96879422b625283fb7047eff",
    "certify --n 5 --m 3 --samples 2000":
        "548c3076182faad517a627d8afc35a5c3737f3c5568beeb026337a7f64d76ea6",
    "certify --n 6 --m 4 --samples 2000":
        "6382b6b2912fba927a4be0b08a76e422d025082fdd8395622e65e1fbbaa4f8ed",
    "sweep-k0 --n 6 --m 4 --samples 2000":
        "aad3afbda8da445cfd1a94854af93b5f93defa825a6574d40f88f9bdacfae855",
    # these two span several chunks of their batch minimum
    "lemmas --which iii --samples 100000":
        "23ebb18571a7841dd36252bb16a384f11a9d7d00900e367be62b815ccb2d7fc1",
    "lemmas --which iv --samples 100000":
        "61397a0bc671b69fc4d1d7deeb192b48c0e169a1f686a8b7a0347622a433c219",
    # the default sweep: one K0 batch of 120,009 rows, seven chunks
    "sweep-k0 --samples 20000":
        "48fe0b23af2d5b6238fea585cf8aba6c100dc11cc7b790ba8121e89317de7167",
    # the (2, 2) face search runs per beta0 after the sweep's one batch minimum
    "sweep-k0 --n 2 --m 2 --samples 2000":
        "d916ed205b12362f34e5c948a18f84c78fbdc9c6a3fc5ff575128d2a1351ff9b",
    # at beta0 = 1 every audit row is lambda = 0
    "certify --beta0 1 --samples 2000":
        "4b8b981fea001badd7a93b4793574825c49ca351d69344afdc49af5e9f82a19f",
    "shrink --n 2 --m 2 --samples 2000":
        "c9d3536343369e879a84b505a56c5d5cb542eebaab8e66fc07b2cc269abc5583",
    "cross-validate --example lawson_osserman --samples 50":
        "16d6724befcb9471b6c62bc1265d13bfdab272af43172399a9e31b851203ef2f",
    "cross-validate --example holomorphic_pair --samples 200":
        "a7b12a6ec3fbd83ed1f40e2aab90f55884b83b4d03a94ff13f32ebccde9443db",
    "graph --example lawson_osserman --point 1,0,0,0":
        "73766a8b930eb0e9bd4962dfae81d9da2ee36705ff8bd12356496905f2ae2365",
    "lemmas --which aux":
        "47189ef3ccde5c30dfab0b575b4d30beac4d3c6152b00a2ac968b187659ef2ea",
    "lemmas --which grouping --samples 200":
        "cf03aa5b6d18309ba1fd4eb98b5851ed4700f95085c37f5671e89b3ed77d6ea0",
}


@pytest.mark.parametrize("argv", list(PINS))
def test_stdout_digest(argv):
    proc = subprocess.run([sys.executable, "-m", "gbl", *argv.split()], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINS[argv]
