"""The OP-TEE core: TA loading, sessions, kernel services, peripherals.

Follows the architecture of Fig. 1: normal-world applications talk to the
GlobalPlatform TEE Client API (:class:`TeeClient`), which traps through the
secure monitor; the core resolves the target TA by UUID — a statically
built-in Pseudo TA, or a normal TA fetched from untrusted storage by the
tee-supplicant (:class:`TaStore`) and admitted only if its vendor signature
verifies.
"""

from __future__ import annotations

import inspect
import uuid as uuid_module
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable

from repro.crypto.pkcs1 import sign_pkcs1_v15, verify_pkcs1_v15
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import TeeError, TrustedAppError
from repro.tee.trusted_app import PseudoTrustedApplication, TrustedApplication, TaSession

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.tee.monitor import SecureMonitor
    from repro.tee.secure_storage import SealedStorage


@lru_cache(maxsize=64)
def _ta_code_bytes(factory: Callable[[], TrustedApplication],
                   ta_uuid: uuid_module.UUID) -> bytes:
    """The simulated "compiled TA image" the vendor signature covers.

    Real OP-TEE signs the TA ELF; our stand-in for the code bytes is the
    factory's source text (falling back to its qualified name), so swapping
    in a modified TA class produces a different image and a failed
    signature check.

    Memoised per ``(factory, uuid)``: ``inspect.getsource`` re-tokenises
    the whole TA module on every call, and ``linecache`` already pins the
    text it reads, so the memo returns the bytes a fresh call would.  A
    swapped TA class is a different factory object and misses the memo;
    the vendor signature is still verified on every load.
    """
    try:
        source = inspect.getsource(factory)
    except (OSError, TypeError):
        source = getattr(factory, "__qualname__", repr(factory))
    return ta_uuid.bytes + source.encode()


@dataclass(frozen=True)
class SignedTaImage:
    """A TA "binary" plus its vendor signature, storable untrusted."""

    ta_uuid: uuid_module.UUID
    factory: Callable[[], TrustedApplication]
    signature: bytes


def sign_trusted_app(factory: Callable[[], TrustedApplication],
                     ta_uuid: uuid_module.UUID,
                     vendor_key: RsaPrivateKey) -> SignedTaImage:
    """Produce a vendor-signed TA image (the TA build/sign step)."""
    code = _ta_code_bytes(factory, ta_uuid)
    return SignedTaImage(ta_uuid=ta_uuid, factory=factory,
                         signature=sign_pkcs1_v15(vendor_key, code, "sha256"))


class TaStore:
    """Untrusted TA storage, served to the core by the tee-supplicant.

    Anyone — including a dishonest operator — can write to it; the core's
    signature check is what keeps malicious images out of the TEE.
    """

    def __init__(self) -> None:
        self._images: dict[uuid_module.UUID, SignedTaImage] = {}

    def install(self, image: SignedTaImage) -> None:
        """Install (or overwrite) an image under its UUID."""
        self._images[image.ta_uuid] = image

    def lookup(self, ta_uuid: uuid_module.UUID) -> SignedTaImage | None:
        """Fetch an image by UUID, or None."""
        return self._images.get(ta_uuid)


class OpTeeCore:
    """The secure-world kernel: sessions, PTAs, devices, kernel services."""

    def __init__(self, ta_verification_key: RsaPublicKey,
                 ta_store: TaStore | None = None):
        self.ta_verification_key = ta_verification_key
        self.ta_store = ta_store if ta_store is not None else TaStore()
        self._monitor: "SecureMonitor | None" = None
        self._ptas: dict[uuid_module.UUID, PseudoTrustedApplication] = {}
        self._sessions: dict[int, TaSession] = {}
        self._next_session_id = 1
        self._devices: dict[str, Any] = {}
        self._kernel_services: dict[str, Any] = {}
        self.sealed_storage: "SealedStorage | None" = None
        #: Secure-world operation counters consumed by the cost model.
        self.op_counters: Counter[str] = Counter()

    # --- wiring -----------------------------------------------------------

    def _attach_monitor(self, monitor: "SecureMonitor") -> None:
        if self._monitor is not None:
            raise TeeError("core already attached to a monitor")
        self._monitor = monitor

    @property
    def monitor(self) -> "SecureMonitor":
        """The attached secure monitor."""
        if self._monitor is None:
            raise TeeError("core has no monitor attached")
        return self._monitor

    def register_pta(self, pta: PseudoTrustedApplication) -> None:
        """Statically build a Pseudo TA into the core (boot-time only)."""
        if pta.UUID in self._ptas:
            raise TeeError(f"duplicate PTA UUID {pta.UUID}")
        pta.on_load(self)
        self._ptas[pta.UUID] = pta

    def register_device(self, name: str, peripheral: Any) -> None:
        """Add a peripheral to the secure device tree (boot-time only)."""
        self._devices[name] = peripheral

    def register_kernel_service(self, name: str, service: Any) -> None:
        """Add a secure-kernel service, e.g. the GPS driver (boot-time)."""
        self._kernel_services[name] = service

    def device(self, name: str) -> Any:
        """A peripheral by name; secure world only."""
        self.monitor.state.require_secure(f"device {name!r}")
        try:
            return self._devices[name]
        except KeyError:
            raise TeeError(f"no device named {name!r}") from None

    def kernel_service(self, name: str) -> Any:
        """A kernel service by name; secure world only."""
        self.monitor.state.require_secure(f"kernel service {name!r}")
        try:
            return self._kernel_services[name]
        except KeyError:
            raise TeeError(f"no kernel service named {name!r}") from None

    # --- TA resolution and dispatch ----------------------------------------

    def _load_ta(self, ta_uuid: uuid_module.UUID) -> TrustedApplication:
        pta = self._ptas.get(ta_uuid)
        if pta is not None:
            return pta
        image = self.ta_store.lookup(ta_uuid)
        if image is None:
            raise TrustedAppError(f"no TA with UUID {ta_uuid}")
        code = _ta_code_bytes(image.factory, image.ta_uuid)
        if not verify_pkcs1_v15(self.ta_verification_key, code,
                                image.signature, "sha256"):
            raise TrustedAppError(
                f"TA image {ta_uuid} failed vendor signature verification")
        ta = image.factory()
        if ta.UUID != ta_uuid:
            raise TrustedAppError("TA image UUID does not match its instance")
        ta.on_load(self)
        return ta

    def _dispatch(self, session_id: int, command: str, params: dict[str, Any]) -> Any:
        """Secure-world entry point; only the monitor calls this."""
        if command == "__open_session__":
            ta_uuid = params["uuid"]
            ta = self._load_ta(ta_uuid)
            ta.open_session(params.get("open_params", {}))
            sid = self._next_session_id
            self._next_session_id += 1
            self._sessions[sid] = TaSession(session_id=sid, ta=ta)
            return sid
        session = self._sessions.get(session_id)
        if session is None:
            raise TrustedAppError(f"no open session {session_id}")
        if command == "__close_session__":
            session.close()
            del self._sessions[session_id]
            return None
        return session.ta.invoke_command(command, params)


class TeeClient:
    """The normal-world GlobalPlatform TEE Client API.

    This is the *only* interface deployed normal-world code uses to reach
    the secure world; every method is a secure monitor call.
    """

    def __init__(self, monitor: "SecureMonitor"):
        self._monitor = monitor

    def open_session(self, ta_uuid: uuid_module.UUID,
                     open_params: dict[str, Any] | None = None) -> int:
        """Open a session to the TA with ``ta_uuid``; returns a session id."""
        return self._monitor.smc_call(
            0, "__open_session__",
            {"uuid": ta_uuid, "open_params": open_params or {}})

    def invoke(self, session_id: int, command: str,
               params: dict[str, Any] | None = None) -> Any:
        """Invoke a TA command over an open session."""
        return self._monitor.smc_call(session_id, command, params or {})

    def close_session(self, session_id: int) -> None:
        """Close an open session."""
        self._monitor.smc_call(session_id, "__close_session__", {})
