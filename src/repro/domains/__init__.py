"""Evaluation domains (paper Table I) and the named domain registry.

The registry maps a *name* to a factory, which is what lets pool workers
rebuild a domain anywhere: the process fan-out of
:meth:`Synthesizer.synthesize_many` (``max_workers > 1``) ships only
``domain.name`` (plus the engine config) over the worker pipe and calls :func:`get` on the other
side, so the unpicklable Domain object never crosses a process boundary.

``get(name)`` returns a per-process shared instance (one warm
:class:`~repro.grammar.path_cache.PathCache` per domain per process);
``get(name, fresh=True)`` builds a private instance — benchmarks and cache
tests use it to guarantee a cold start.  Custom domains join the registry
via :func:`register`.
"""

import inspect
from typing import Callable, Dict, List

from repro.errors import DomainError
from repro.synthesis.domain import Domain


def _textediting(fresh: bool = False) -> Domain:
    from repro.domains.textediting import build_domain

    return build_domain(fresh=fresh)


def _astmatcher(fresh: bool = False) -> Domain:
    from repro.domains.astmatcher import build_domain

    return build_domain(fresh=fresh)


#: name -> factory(fresh=False).  Factories own their per-process caching
#: (the built-in ones memoize inside their modules), so the registry holds
#: no domain objects of its own.
_REGISTRY: Dict[str, Callable[..., Domain]] = {
    "textediting": _textediting,
    "astmatcher": _astmatcher,
}


def _accepts_fresh(factory: Callable[..., Domain]) -> bool:
    """Whether ``factory`` can be called as ``factory(fresh=...)``.

    Decided by *signature inspection*, never by catching ``TypeError``
    from the call itself — a ``TypeError`` raised inside a factory's own
    body must propagate, not be misread as "no ``fresh`` parameter" and
    silently retried.  Uninspectable callables (C extensions, odd
    wrappers) are assumed to take the keyword, matching the documented
    factory contract.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return True
    try:
        signature.bind(fresh=False)
    except TypeError:
        return False
    return True


def get(name: str, *, fresh: bool = False) -> Domain:
    """A registered domain by name.

    ``fresh=False`` (default) returns the process-shared instance;
    ``fresh=True`` builds a new private one (cold caches, safe to mutate).
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise DomainError(
            f"unknown domain {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    if _accepts_fresh(factory):
        return factory(fresh=fresh)
    # A zero-argument factory: every call is a fresh build, so the flag
    # is moot.
    return factory()


def load_domain(name: str, *, fresh: bool = False) -> Domain:
    """Load a built-in or registered domain by name (alias of :func:`get`,
    kept as the README-facing spelling)."""
    return get(name, fresh=fresh)


def load_domains(
    names: "Iterable[str] | None" = None, *, fresh: bool = False
) -> Dict[str, Domain]:
    """Resolve several registered domains at once, as ``name -> Domain``.

    ``names=None`` loads every registered domain.  Order and duplicates in
    ``names`` are normalised away; an unknown name raises
    :class:`~repro.errors.DomainError` before anything is built, so callers
    (e.g. ``repro serve --domains``) fail fast instead of half-starting.
    """
    wanted = available_domains() if names is None else list(names)
    unknown = [n for n in wanted if not is_registered(n)]
    if unknown:
        raise DomainError(
            f"unknown domain(s) {sorted(set(unknown))}; "
            f"available: {available_domains()}"
        )
    return {n.lower(): get(n, fresh=fresh) for n in wanted}


def register(name: str, factory: Callable[..., Domain]) -> None:
    """Register a custom domain factory under ``name``.

    ``factory`` should accept a ``fresh`` keyword (build a new instance
    when true, may return a shared one otherwise); a zero-argument
    callable also works and is treated as always-fresh.  Registration is
    per process — for a ``max_workers > 1`` batch, register at import
    time (module scope) so pool workers re-run it.
    """
    key = name.lower()
    if key in _REGISTRY:
        raise DomainError(f"domain {name!r} is already registered")
    _REGISTRY[key] = factory


def unregister(name: str) -> None:
    """Remove a custom domain factory (built-ins cannot be removed)."""
    key = name.lower()
    if key in ("textediting", "astmatcher"):
        raise DomainError(f"cannot unregister built-in domain {name!r}")
    if key not in _REGISTRY:
        raise DomainError(f"unknown domain {name!r}")
    del _REGISTRY[key]


def is_registered(name: str) -> bool:
    return name.lower() in _REGISTRY


def available_domains() -> List[str]:
    return sorted(_REGISTRY)


def clear_cached_domains() -> None:
    """Drop every factory's per-process shared instance (best effort:
    factories expose ``cache_clear``).  Benchmarks call this so a
    subsequent pass — including forked pool workers — really starts cold.
    """
    for factory in _REGISTRY.values():
        clear = getattr(factory, "cache_clear", None)
        if clear is not None:
            clear()


def _builtin_cache_clear(factory_name: str):
    def clear() -> None:
        import repro.domains.astmatcher as astmatcher
        import repro.domains.textediting as textediting

        {"textediting": textediting, "astmatcher": astmatcher}[
            factory_name
        ].build_domain.cache_clear()

    return clear


_textediting.cache_clear = _builtin_cache_clear("textediting")
_astmatcher.cache_clear = _builtin_cache_clear("astmatcher")


# Domain packs (repro.packs): the shipped builtin packs and anything on
# $REPRO_PACK_PATH register here, at import time — which is precisely what
# makes pack domains resolvable inside forked/spawned process-pool workers
# (they re-import this module and re-run the discovery).  The import is
# deferred to the bottom of the module because the loader needs
# :func:`register` to exist.
from repro.packs.loader import register_env_packs as _register_env_packs  # noqa: E402

_register_env_packs()
