"""repro — reproduction of *Private Editing Using Untrusted Cloud
Services* (Huang & Evans, 2011).

The library lets a client edit documents through an untrusted cloud
editing service while the service only ever stores ciphertext, using
incremental encryption (rECB / RPC modes) over an IndexedSkipList of
variable-length multi-character blocks.

Quick start::

    from repro import PrivateEditingSession

    session = PrivateEditingSession("doc", password="hunter2",
                                    scheme="rpc")
    session.open()
    session.type_text(0, "my confidential notes")
    session.save()
    assert "confidential" not in session.server_view()

Layer map (bottom-up):

* :mod:`repro.crypto` — OpenSSL AES (pure-Python oracle), random sources;
* :mod:`repro.encoding` — Base32, form encoding, the record wire format;
* :mod:`repro.datastructures` — IndexedSkipList / IndexedAVL;
* :mod:`repro.core` — deltas, keys, the rECB and RPC schemes,
  :class:`EncryptedDocument` (Enc/Dec/IncE);
* :mod:`repro.net`, :mod:`repro.services`, :mod:`repro.client` — the
  simulated cloud (Google Documents, Bespin, Buzzword);
* :mod:`repro.extension` — the mediating "browser extension";
* :mod:`repro.security` — adversaries, attacks, covert channels;
* :mod:`repro.baselines`, :mod:`repro.workloads`, :mod:`repro.bench` —
  evaluation support.
"""

from repro.core import (
    Delta,
    EncryptedDocument,
    KeyMaterial,
    RecbDocument,
    RpcDocument,
    create_document,
    load_document,
)
from repro.errors import ReproError
from repro.extension import (
    Countermeasures,
    GDocsExtension,
    PasswordVault,
    PrivateEditingSession,
)

__version__ = "1.0.0"

__all__ = [
    "Delta",
    "KeyMaterial",
    "EncryptedDocument",
    "RecbDocument",
    "RpcDocument",
    "create_document",
    "load_document",
    "PrivateEditingSession",
    "GDocsExtension",
    "PasswordVault",
    "Countermeasures",
    "ReproError",
    "__version__",
]
