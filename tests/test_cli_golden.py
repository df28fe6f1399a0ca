"""Golden-bytes CLI test: stdout and exit code of a fixed command set.

Each entry is the exit code of ``uwbcap.cli.main`` for the argv and the
SHA-256 of the UTF-8 stdout it printed, recorded from the row-by-row
implementation (scalar model calls, ``csv.DictWriter``,
``json.dump(indent=2)``) that the columnar sweep path and its chunked
formatter replace.  Any change to the bytes a command emits -- number
formatting, column order, row order, chunk boundaries -- fails here.

Run this file as a script to print the digests of the checkout it is run
from, in the layout of ``GOLDEN`` below::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import sys

import pytest

from uwbcap.cli import main

_IDEAL = "sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns"
_BINARY = "sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns"
_DIGITAL = "sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4"
_MIXED = "sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns"
# 6000 rows: more than one emission chunk.
_DIGITAL_LARGE = "sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 1000 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs capacity,derivative,percent"
# text exponents 9 through 17, integer-valued frequency text
_WIDE = "sweep --mode mixed --param fcircuit --from 1GHz --to 1e17Hz --points 40 --delay-spreads 1ns,10ns --outputs capacity,derivative,percent"
# the top of the float range, where JSON keeps full precision
_TOP = "sweep --mode mixed --param fcircuit --from 1e300Hz --to 1.7976931348623157e308Hz --points 3 --delay-spreads 1ns"
_SUBSETS = (
    "capacity", "derivative", "percent", "capacity,derivative", "capacity,percent",
    "derivative,percent", "capacity,derivative,percent",
)


def _argv_set() -> list:
    cases = []
    for base in (_IDEAL, _BINARY, _DIGITAL, _MIXED):
        for fmt in ("human", "csv", "json"):
            cases.append(f"{base} --format {fmt}")
            cases.append(f"{base} --linear --format {fmt}")
        cases.append(f"{base} --log --format csv")
    for base in (_BINARY, _DIGITAL, _MIXED):
        for subset in _SUBSETS:
            cases.append(f"{base} --outputs {subset} --format csv")
        cases.append(f"{base} --outputs capacity,derivative,percent --format json")
        cases.append(f"{base} --outputs capacity,derivative,percent --format human")
    for subset in ("percent", "capacity,percent"):
        cases.append(f"{_IDEAL} --outputs {subset} --format csv")
    cases += [
        f"{_DIGITAL} --outputs percent,derivative,capacity --format csv",
        f"{_DIGITAL} --outputs percent,derivative,capacity --format json",
        f"{_DIGITAL} --mary 4 --mary-convention log2 --format csv",
        f"{_DIGITAL} --mary 4 --mary-convention log2 --format json",
        f"{_MIXED} --mary 4 --mary-convention log2 --format csv",
        f"{_MIXED} --mary 4 --mary-convention log2 --format json",
        f"{_MIXED} --mary 5 --format csv",
        f"{_IDEAL} --snr-db 10 --format csv",
        f"{_IDEAL} --snr-db 10 --format json",
        f"{_IDEAL} --snr-db 1 --format human",
        f"{_DIGITAL_LARGE} --format csv",
        f"{_DIGITAL_LARGE} --format json",
        f"{_DIGITAL_LARGE} --format human",
        "sweep --mode binary --param bandwidth --from 1GHz --to 2GHz --points 4 --delay-spreads 0ns,17ns --format csv",
        "sweep --mode mixed --param fcircuit --from 1GHz --to 2GHz --points 4 --delay-spreads 17ns,0ns --outputs capacity,percent --format csv",
        "sweep --mode digital --param fs --from 1GSPS --to 2GSPS --points 4 --delay-spreads 17ns --nsampling 4,1 --format csv",
        "sweep --mode digital --param fs --from 1GSPS --to 2GSPS --points 4 --delay-spreads 0ns --nsampling 1 --outputs percent --format csv",
    ]
    for base in (_WIDE, _TOP):
        for fmt in ("human", "csv", "json"):
            cases.append(f"{base} --format {fmt}")
    for which in ("iv", "vii"):
        for fmt in ("human", "csv", "json"):
            cases.append(f"table {which} --format {fmt}")
    for table, query in (
        ("adc-state-of-art", "--max sampling_frequency"),
        ("adc-market", "--where sampling_frequency>=1GSPS"),
        ("channels", "--where sight=NLOS"),
        ("pulse-generators", "--min min_pulse_duration"),
        ("antenna-configs", "--where rms_delay_spread<5ns"),
    ):
        for fmt in ("human", "csv", "json"):
            cases.append(f"datasets list {table} --format {fmt}")
        cases.append(f"datasets list {table} {query} --format csv")
    # an empty selection: "[]" as JSON, nothing as CSV or human
    for fmt in ("human", "csv", "json"):
        cases.append(f"datasets list channels --where rms_delay_spread>1s --format {fmt}")
    for base in (
        "capacity digital --fs 2GSPS --nsampling 4 --delay-spread 17ns",
        "capacity digital --fs 2GSPS --nsampling 4 --delay-spread 17ns --mary 5",
        "capacity mixed --fcircuit 10.87GHz --delay-spread 0.87ns",
        "capacity mixed --fcircuit 10.87GHz --delay-spread 0.87ns --mary 4 --mary-convention log2",
        # zero spread: an "unbounded" asymptote
        "capacity binary --bandwidth 1GHz --delay-spread 0s",
        # low SNR: a note
        "capacity ideal --bandwidth 1GHz --delay-spread 17ns --snr-db 1",
        "validate-isi --delay-spread 9ns --pulse-duration 0.25ns --deterministic",
        "validate-isi --delay-spread 1ns --pulse-duration 0.5ns --guard-multiples 0,1,2 --deterministic",
    ):
        for fmt in ("human", "csv", "json"):
            cases.append(f"{base} --format {fmt}")
    return cases


CASES = _argv_set()

# argv -> (exit code, SHA-256 of stdout)
GOLDEN = {
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --format human': (0, 'ba85d99d4d713e4f9f1739214d0ba672b3e264fa7c329e751aef01e4611485b6'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --linear --format human': (0, '41bab15dd247e089eff664935b6ef983ad371d28d64cce3a697e95060fb11e5c'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --format csv': (0, 'a40acfc3f67e43de7578dad675ef614e6602493ad1db0c73f28fc684a69a1905'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --linear --format csv': (0, '0b68f089b1c4a46ea383de3a7bc448eb3a1ca55c5c54461f46c8ef84caf749ee'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --format json': (0, 'adae58b78fba86ba2f5dab7f534049944ec0d8ad6719969e171e2c32b4a97514'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --linear --format json': (0, 'be08eb4c358eb0ea6af37036ad79fb0f69991386fff3f6dbac8604c854688a41'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --log --format csv': (0, 'a40acfc3f67e43de7578dad675ef614e6602493ad1db0c73f28fc684a69a1905'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --format human': (0, 'ba85d99d4d713e4f9f1739214d0ba672b3e264fa7c329e751aef01e4611485b6'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --linear --format human': (0, '41bab15dd247e089eff664935b6ef983ad371d28d64cce3a697e95060fb11e5c'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --format csv': (0, 'a40acfc3f67e43de7578dad675ef614e6602493ad1db0c73f28fc684a69a1905'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --linear --format csv': (0, '0b68f089b1c4a46ea383de3a7bc448eb3a1ca55c5c54461f46c8ef84caf749ee'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --format json': (0, 'adae58b78fba86ba2f5dab7f534049944ec0d8ad6719969e171e2c32b4a97514'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --linear --format json': (0, 'be08eb4c358eb0ea6af37036ad79fb0f69991386fff3f6dbac8604c854688a41'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --log --format csv': (0, 'a40acfc3f67e43de7578dad675ef614e6602493ad1db0c73f28fc684a69a1905'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --format human': (0, 'e5bfc9ef04dec82ad4bbaac21ccab5d8d23012421e735080ef3239a38cb8e44b'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --linear --format human': (0, '91321df7190e25b043bef2116fa1a2b9a512897fb7942d55e3b631977f0a4223'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --format csv': (0, '308ec2fa8a15a2d709bf26a85e559e829aa8000654c4e4cee93d2e94c34ba05e'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --linear --format csv': (0, 'fb630102e2eedd516e750e757f70f86eb2a641142ce4d6d872fc62924d9aeb12'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --format json': (0, '05bcb662451829630b9184cb9d35f2c84478957bc386a9504463e5a0c5a88859'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --linear --format json': (0, '3e99fdac1e79652b5a1bf4d1a03d291feb8db7e8eaaa41c96e1bdcbd4bf4291a'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --log --format csv': (0, '308ec2fa8a15a2d709bf26a85e559e829aa8000654c4e4cee93d2e94c34ba05e'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --format human': (0, 'b1e778ca5e98018aa8e93ab640ba60b97e7f357b3a7e66be499d3adf30dc94ed'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --linear --format human': (0, 'e180889d09cceb5dbc96c6c138be2c7cc1a57fbd9402724d72f4e7648a7703a4'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --format csv': (0, 'd2762bf31ae537a517c4c52f2ea265d85130e026770c0e6dbc14ccfa22b41b6a'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --linear --format csv': (0, 'a925d3be17e10d530b684e975877a72a15c3ed3e10aae675a39c128bc0faa672'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --format json': (0, '6cfab278f7b4752ffd49136e217dd7e1228c629b85fa2307a0db39a5d38bde67'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --linear --format json': (0, '84add9f898a3435503307317be80e0980521ae97524477844d8aaaa1c3e6ac97'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --log --format csv': (0, 'd2762bf31ae537a517c4c52f2ea265d85130e026770c0e6dbc14ccfa22b41b6a'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs capacity --format csv': (0, 'a40acfc3f67e43de7578dad675ef614e6602493ad1db0c73f28fc684a69a1905'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs derivative --format csv': (0, '9d1ed9180024d8c22606c6cd771517d65eeb581132f7db8cb852c277f42c7c35'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs percent --format csv': (0, '1fbb76115fabafd2b6b00b09d70cabbf731e45ffbb4a8b9d70c70f3ed8ca502c'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs capacity,derivative --format csv': (0, '8543bc060974d6a03991f77122d1c22e1965883edf3941ed5a92f77f78dc1067'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs capacity,percent --format csv': (0, 'fd346e3736bf21c45852dcaf83993c0655829c0724157145a3067f942ecc40b4'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs derivative,percent --format csv': (0, '6fb7ccfb77d8bd8712f7a478584561648de990cba548e759e15e45a6371a093c'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs capacity,derivative,percent --format csv': (0, 'a2b210078e4d172fca128cd212131a664819845dbb36d51fc74d0f619ec00370'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs capacity,derivative,percent --format json': (0, '068f49ef941f038cd0ffb40d0c1f622cdc7c8e7d595ad7307113e5ebb18e8788'),
    'sweep --mode binary --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs capacity,derivative,percent --format human': (0, '5e8be81d60c0902c4d20090ba5c7711938bbb5c1bdd4cbc2ffb2e83fc853aedd'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs capacity --format csv': (0, '308ec2fa8a15a2d709bf26a85e559e829aa8000654c4e4cee93d2e94c34ba05e'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs derivative --format csv': (0, 'ecd17bfc79dde5a41cecc7e346204f0fa24f87cf48287ceeee6ac00bcf120573'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs percent --format csv': (0, '375e9e63a992334688825276e67ac33be423581b6e247d6a82b253288586bb37'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs capacity,derivative --format csv': (0, '3d31996bdd4ae06ade62c39b2f47ac7890d7f41c4824b1fbf52de358fd276775'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs capacity,percent --format csv': (0, 'acab4113b457a713ec8b6c3d4aefd950579e171e729f9310de39720269a8f8af'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs derivative,percent --format csv': (0, '405ab2f4d486d75f8ee990e6bfdba596718d4b94519bb1836f2ff1ecd9ee7236'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs capacity,derivative,percent --format csv': (0, '7a460a5516f2c46aedec601bb0393a994e5c999ca40c24dfa76e90ab71648043'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs capacity,derivative,percent --format json': (0, '12910bc6e28830f3ff7d69e919bcb6eed3cc1302131b9ff49489e43797a47034'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs capacity,derivative,percent --format human': (0, 'c87d4a7868b3bccd87a81bb7143b1f4c6fbb306ee61db560b19f0cfe94561aff'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --outputs capacity --format csv': (0, 'd2762bf31ae537a517c4c52f2ea265d85130e026770c0e6dbc14ccfa22b41b6a'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --outputs derivative --format csv': (0, 'a966bba5914eaad6677c6b36a18180e175e07ebb8fc349e6e47478969c0a59de'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --outputs percent --format csv': (0, 'a89f1e0456066b9b03bbb3eaeecb529de0eb4f3ae8d4581fe641c94df85949a0'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --outputs capacity,derivative --format csv': (0, '160a56d13dd1b5b7cc78cebf085a3f080585af227a073d4d3c1424c2778ee12f'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --outputs capacity,percent --format csv': (0, '0177f0b0e4467373f61aefb0b25923c7f77cd840d091e4c7e1993826f4349a5c'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --outputs derivative,percent --format csv': (0, '178cf595d6acf3254153bf03fba71c110eaed4003ec116e48f226b73affabae2'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --outputs capacity,derivative,percent --format csv': (0, '0e4fbf0e54b64096d5bfc133248ffef2d9ab5253de7f0015ee1ce3ba9b85a56f'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --outputs capacity,derivative,percent --format json': (0, '961fd156c655d3f282629bc47d2c345dfe4c6f4f0b42186de9f5be154bc78567'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --outputs capacity,derivative,percent --format human': (0, '22ae5f565910314f8971b23666cd7ce0a01bfcef8ff9b8c6b0bd4a0f9adbe846'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs percent --format csv': (0, '1fbb76115fabafd2b6b00b09d70cabbf731e45ffbb4a8b9d70c70f3ed8ca502c'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --outputs capacity,percent --format csv': (0, 'fd346e3736bf21c45852dcaf83993c0655829c0724157145a3067f942ecc40b4'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs percent,derivative,capacity --format csv': (0, '7a460a5516f2c46aedec601bb0393a994e5c999ca40c24dfa76e90ab71648043'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs percent,derivative,capacity --format json': (0, '12910bc6e28830f3ff7d69e919bcb6eed3cc1302131b9ff49489e43797a47034'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --mary 4 --mary-convention log2 --format csv': (0, 'e2698ef149bd1c55129d1f5421286e3b4ef1a1a3a421d0f43fb75cc292617cf0'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 25 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --mary 4 --mary-convention log2 --format json': (0, '147dce359ce90cb1a9c4c56f67b41a12b8d50cfe1ac0bd53dacc3d3ffddd0f8f'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --mary 4 --mary-convention log2 --format csv': (0, '8ab90211c82ba9879e2264647840ccc2528122f1a37fdc1ccaf4b7ac5e863c23'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --mary 4 --mary-convention log2 --format json': (0, 'e621e9ef592760af3e21cd0e5474fed41e2ed9162841fa98e889ca5c45ae27c0'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 60GHz --points 25 --delay-spreads 1ns,5ns,10ns --mary 5 --format csv': (0, 'ddce97226da4bfb1e1e17d419211cdab0694dfd35aa30b1997b921c9da66c029'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --snr-db 10 --format csv': (0, '3c6e87a3aa2ac954c0e48ea8955dfd28c42e1484cade33a43587fba0dd83ecac'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --snr-db 10 --format json': (0, '03d6d30f5c54379f0a8dad4d8631fcb9448a077490918268738a5853e2ede60c'),
    'sweep --mode ideal --param bandwidth --from 100MHz --to 20GHz --points 25 --delay-spreads 9ns,17ns,89ns --snr-db 1 --format human': (0, '60e3ea511dac10af59beccf9f3b1a3f13216705c552b19ad89ed51f21631ba97'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 1000 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs capacity,derivative,percent --format csv': (0, '4e6acdee36f5c5b3edaf42c5dffbf4f0876193a9853274eba548b4988d916bde'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 1000 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs capacity,derivative,percent --format json': (0, '22007f6fab7917afe2e70a426c457e9fa9334a32f7a5b66ad93a35ccb89825ce'),
    'sweep --mode digital --param fs --from 100MSPS --to 100GSPS --points 1000 --delay-spreads 9ns,17ns,89ns --nsampling 2,4 --outputs capacity,derivative,percent --format human': (0, '4954e20c9ab90838eb6938b3ec0d886e134e8b096715d7b0d6ec4e093ca3ee3c'),
    'sweep --mode binary --param bandwidth --from 1GHz --to 2GHz --points 4 --delay-spreads 0ns,17ns --format csv': (0, '8b71a9aba7a13a57f9c96ad2e67827f3d21409f40a96cbdf89313e2f7c5671ab'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 2GHz --points 4 --delay-spreads 17ns,0ns --outputs capacity,percent --format csv': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'sweep --mode digital --param fs --from 1GSPS --to 2GSPS --points 4 --delay-spreads 17ns --nsampling 4,1 --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'sweep --mode digital --param fs --from 1GSPS --to 2GSPS --points 4 --delay-spreads 0ns --nsampling 1 --outputs percent --format csv': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    # recorded before the JSON token rule stopped re-parsing each 10-digit
    # text: exponents 9-17, integer-valued text, the top of the float range
    'sweep --mode mixed --param fcircuit --from 1GHz --to 1e17Hz --points 40 --delay-spreads 1ns,10ns --outputs capacity,derivative,percent --format human': (0, '8fcf71d6aaa073c85ba9c3fa90a4222215e91ee8d46dbeb3babc43e5d6f8ec4c'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 1e17Hz --points 40 --delay-spreads 1ns,10ns --outputs capacity,derivative,percent --format csv': (0, '7dce74c8c1db0fb810861f93e1a164a7eb3454833b2f3066271a4d1eb26182c7'),
    'sweep --mode mixed --param fcircuit --from 1GHz --to 1e17Hz --points 40 --delay-spreads 1ns,10ns --outputs capacity,derivative,percent --format json': (0, 'd49038e47862b01010207e0ef99047b7490e38c9c795253f24c8b9505c7a6116'),
    'sweep --mode mixed --param fcircuit --from 1e300Hz --to 1.7976931348623157e308Hz --points 3 --delay-spreads 1ns --format human': (0, '5724d5306f9033e94b5ceb556c4c2a4c7d61d2bfffd772ba27ed67f7daec7528'),
    'sweep --mode mixed --param fcircuit --from 1e300Hz --to 1.7976931348623157e308Hz --points 3 --delay-spreads 1ns --format csv': (0, '8a7890eba8110bc7e2d06f4ff48357e1f946b33a2e3c7355185627cf62aa6915'),
    'sweep --mode mixed --param fcircuit --from 1e300Hz --to 1.7976931348623157e308Hz --points 3 --delay-spreads 1ns --format json': (0, 'f5b0909a8a0754ee4bc633909f94f3d09287445ff334d6fd4206b553a4c4cf2d'),
    'table iv --format human': (0, '6a95b8fbfd4d6333594682b84ffea502967fbd59277e335b0dfef53bc8b00bdd'),
    'table iv --format csv': (0, 'c6e275d92be9e0322bd411bf8bcbb2375296ff0b7a6fccd50a6e7043ee893caa'),
    'table iv --format json': (0, '1bd80a52f2183b6ba1dd8b5f3ce126522cd97b0a1357a8522773e852b9d54ae6'),
    'table vii --format human': (0, '2697c995bbac136360a2a24d534a43687fcdf03ce276dccccd5c0f90f67aad69'),
    'table vii --format csv': (0, '10a34703ad905491d84dfd6c304256ad0a8ae770eb528e7d519a62f526f3851a'),
    'table vii --format json': (0, 'e26e51e5065f78e1ce8c4de55ccaa886dee8722c9283824bb85cb919a61d38ab'),
    # the datasets digests were captured from the per-schema survey writer
    'datasets list adc-state-of-art --format human': (0, '1829c4d7d100e9dbf258753983de3ce4ea90c74f5902c0ea7af15738498b5da3'),
    'datasets list adc-state-of-art --format csv': (0, '6efff6686438ad6a8ad2ab3a66bbfd5ca557441cc50c3b5af16ed9cb62022faf'),
    'datasets list adc-state-of-art --format json': (0, '775c5aa4c6aa1023b91a6e2ce2a19a61cf7ce3c0a64322d2fdb02224a4d98564'),
    'datasets list adc-state-of-art --max sampling_frequency --format csv': (0, 'dc4d2611f9c980ac6e47c799c21d23534e02ce000c2553afe0fbba83a3300d7d'),
    'datasets list adc-market --format human': (0, 'a8caf95591ef3ce586ba4c83c7b3a02093a1fde9c0a95941a7dc0a61fe4b58cd'),
    'datasets list adc-market --format csv': (0, '1c2ab6b731cac251ce684b387ef60ffa84da8b9c32d5ccc3299e7128f11b4d92'),
    'datasets list adc-market --format json': (0, '0faadd56a431d7c8d9db0644b31c31bf57c07a9f15681377e10738b5c0edb5b3'),
    'datasets list adc-market --where sampling_frequency>=1GSPS --format csv': (0, '611eefdf2c658ada65cf290f8ac14f233ff1e84984f96264773981e147f96ea8'),
    'datasets list channels --format human': (0, '8c2e43456e596b67c5a59fd04fa429248e95452bdfea2fb99be6ac8def5c76bf'),
    'datasets list channels --format csv': (0, '2d054f267905c9005b8a9d2614c3c8b5cfdfa1fe43b8455c32e987a59bdb29df'),
    'datasets list channels --format json': (0, '63fab6d9b743267cb24d929217e53c06fe94f8a9d3260b89d7129cda5e778264'),
    'datasets list channels --where sight=NLOS --format csv': (0, '0f70f264f284f3a016737c8a3b8768f5720d6884aba16a1da2290911661f4be5'),
    'datasets list pulse-generators --format human': (0, '899e2ec34c810dc6aa4184bdfc8576463b2586058b898bca5f6eeae5e2d87ac6'),
    'datasets list pulse-generators --format csv': (0, 'd6755ec913bc5d0662358212dbf8de0755f19e479f965226b6bbf280ac2f8b8b'),
    'datasets list pulse-generators --format json': (0, 'f65c2e49be2a47e2b7c734779183c537e6e8ec56695a968472d60a79d4c927e9'),
    'datasets list pulse-generators --min min_pulse_duration --format csv': (0, 'b373e4525c40f7d84801f4d18784c9b4fc1bbe6f10bd236561eaed31c545824a'),
    'datasets list antenna-configs --format human': (0, '4667310582bf35c9156804652bf474e67a5b7bb5ca21fa952f1dfe714e09c591'),
    'datasets list antenna-configs --format csv': (0, 'b4d4f335d1cf75dab1571ffb4f69523884ef624dbc2fa1c5cdfc91e841561dd7'),
    'datasets list antenna-configs --format json': (0, '2a61f927f117238abee6cdc22ec02f3199278c57e615b88ebbf7fb0bba340e25'),
    'datasets list antenna-configs --where rms_delay_spread<5ns --format csv': (0, 'beb2ed3fcf7c29e72a6acebf9e12597cf0a939432359cf76c24d6af4af82c5be'),
    'capacity digital --fs 2GSPS --nsampling 4 --delay-spread 17ns --format csv': (0, 'e7838cca74bab96473ccc6c95c1cbec7b45742f62789eb4fd35630c1153b56bf'),
    'capacity digital --fs 2GSPS --nsampling 4 --delay-spread 17ns --mary 5 --format csv': (0, '3145dd52b1c7e44c3c4c5858d391eeb94689c5e9743da3c18639a4e01ecafae5'),
    'capacity mixed --fcircuit 10.87GHz --delay-spread 0.87ns --format csv': (0, 'ba2dda38c66625597c98862e0aa695eb0254994e5250dfb5ce0c33488416d4c7'),
    'capacity mixed --fcircuit 10.87GHz --delay-spread 0.87ns --mary 4 --mary-convention log2 --format csv': (0, '61ceb4ef9d304b07ed0cc513ef740010150f0c44092ddcde55e8120ee4ea04be'),
    'capacity binary --bandwidth 1GHz --delay-spread 0s --format csv': (0, '761dacdd2a4a35343d8ecb0b76872fb3a8da810bb74a5d64260ef51bb982d75b'),
    'capacity ideal --bandwidth 1GHz --delay-spread 17ns --snr-db 1 --format csv': (0, 'd9a9080f40d9200d2d51d225560eb8ed51c82fede60540df1ad56f73ffd9b670'),
    # the two validate-isi digests were re-captured when the profile
    # calibration began to hit its target d_RMS to the last bits, and the
    # 1 ns one again when its default grid went from 601 taps to 600
    'validate-isi --delay-spread 9ns --pulse-duration 0.25ns --deterministic --format csv': (0, '359e5e96cf837a258f1f65b9e612316d699ccd28b1eb69f2bdd8d3cc3eee2008'),
    'validate-isi --delay-spread 1ns --pulse-duration 0.5ns --guard-multiples 0,1,2 --deterministic --format csv': (0, 'e16f2867c79e5f1ddef2c42e5ad61dae8cd93b847373d572db3d85dd166d7c5e'),
    # capacity and validate-isi as human and JSON, and an empty datasets
    # selection, recorded before the CLI's output dispatch was merged
    'datasets list channels --where rms_delay_spread>1s --format human': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'datasets list channels --where rms_delay_spread>1s --format csv': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'datasets list channels --where rms_delay_spread>1s --format json': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570'),
    'capacity digital --fs 2GSPS --nsampling 4 --delay-spread 17ns --format human': (0, '774bb45dae8a6c0160d70fd72944d894317ba78ab3e613d8078762d2a5b2e500'),
    'capacity digital --fs 2GSPS --nsampling 4 --delay-spread 17ns --format json': (0, '97c6ae36790bf024d6afa716909108099c3f7402b5b149b1d33d4baabfab7c80'),
    'capacity digital --fs 2GSPS --nsampling 4 --delay-spread 17ns --mary 5 --format human': (0, 'db008bc392584e82847bf2effee30c8069ed8d2d7c2888cb8761dc2f92e49bb0'),
    'capacity digital --fs 2GSPS --nsampling 4 --delay-spread 17ns --mary 5 --format json': (0, 'fde5c9b03f91b4ddeec0491bbadab623a3f166cc24a5f30e656ce4172f12179c'),
    'capacity mixed --fcircuit 10.87GHz --delay-spread 0.87ns --format human': (0, 'd49f74535031c2d7084c50bc4b1a9e1c4f865fa91c4309b79ddd38393cb4f8b8'),
    'capacity mixed --fcircuit 10.87GHz --delay-spread 0.87ns --format json': (0, '750672d078156a74bd70df6eec2ee5386dced6501857e07ffd99abd26fe94431'),
    'capacity mixed --fcircuit 10.87GHz --delay-spread 0.87ns --mary 4 --mary-convention log2 --format human': (0, 'ca96c8426e6050ce1e71bc3248506e66e2c62460cd34a422b72f2d5e5abb1667'),
    'capacity mixed --fcircuit 10.87GHz --delay-spread 0.87ns --mary 4 --mary-convention log2 --format json': (0, '3e7cb638a6260b32cd83531413737aa7130cf69dc612fa470d8fa64582480874'),
    'capacity binary --bandwidth 1GHz --delay-spread 0s --format human': (0, '154f367acc1feaa8cf6f370205e196ecb52422a9a1bf5d334a77a6820b2037fa'),
    'capacity binary --bandwidth 1GHz --delay-spread 0s --format json': (0, 'd84978ee6e43a82af7ad092c11d7e47abc7fc216da714510bea1bb1ba947f005'),
    'capacity ideal --bandwidth 1GHz --delay-spread 17ns --snr-db 1 --format human': (0, 'c74ffce427190bd81ed575177e56cabdccd05b9e88f3370a188786dac6eba292'),
    'capacity ideal --bandwidth 1GHz --delay-spread 17ns --snr-db 1 --format json': (0, '3871b07dce50dd023fb76cf2c3296b7d4fae30456f75bc464449c556c6a824f4'),
    # the JSON digests of validate-isi (full precision) were re-captured when
    # the fading-free oracle became closed-form, the 1 ns human one when its
    # default grid went from 601 taps to 600
    'validate-isi --delay-spread 9ns --pulse-duration 0.25ns --deterministic --format human': (0, '07d78f5df44b35c52c4ccf7a2959a4484aac57bd8eef6b8d5aa6bdf97e584eeb'),
    'validate-isi --delay-spread 9ns --pulse-duration 0.25ns --deterministic --format json': (0, 'f3a2b8cb1d84ca68bc2c40089f91ad092abf46543fd8ab70ca854adbffe094a0'),
    'validate-isi --delay-spread 1ns --pulse-duration 0.5ns --guard-multiples 0,1,2 --deterministic --format human': (0, '185265f1acb6e9df40206fbc6f2de6d565143168e7437a2f70164a057f9c88c8'),
    'validate-isi --delay-spread 1ns --pulse-duration 0.5ns --guard-multiples 0,1,2 --deterministic --format json': (0, '1a38add650feb47041eb3cae18bf57d1396e25107b4d419b42f4883ae7f13c47'),
}


def _stdout(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _run(argv: str) -> tuple:
    code, text = _stdout(argv.split())
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_set_is_complete():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("argv", CASES)
def test_stdout_bytes_match_golden(argv):
    assert _run(argv) == GOLDEN[argv]


_ONE_PER_COMMAND = (
    "capacity ideal --bandwidth 1GHz --delay-spread 17ns --snr-db 1",
    _BINARY,
    "table iv",
    "datasets list channels --where sight=NLOS",
    "validate-isi --delay-spread 9ns --pulse-duration 0.25ns --deterministic",
)


@pytest.mark.parametrize("fmt", ("human", "csv", "json"))
@pytest.mark.parametrize("base", _ONE_PER_COMMAND, ids=lambda base: base.split()[0])
def test_output_file_gets_the_stdout_bytes(base, fmt, tmp_path):
    argv = f"{base} --format {fmt}".split()
    path = tmp_path / "out"
    assert _stdout([*argv, "--output", str(path)]) == (0, "")
    assert _stdout(argv) == (0, path.read_bytes().decode("utf-8"))


if __name__ == "__main__":
    for argv in CASES:
        code, digest = _run(argv)
        sys.stdout.write(f"    {argv!r}: ({code}, {digest!r}),\n")
