"""numpy, imported at the first array call instead of with the package."""

from __future__ import annotations


class _LazyNumpy:
    """The ``np`` of the modules that import numpy lazily, until one of them
    reads an attribute of it. That read imports numpy and binds each such
    module's global ``np`` to numpy itself, so every later ``np.`` lookup
    is a plain global lookup. Concurrent first reads are safe: each
    ``import numpy`` after the first waits on numpy's module lock until it
    is fully loaded, so no thread sees a half-loaded numpy."""

    def __init__(self) -> None:
        self.namespaces: list[dict] = []

    def __getattr__(self, name: str):
        import numpy

        for namespace in self.namespaces:
            namespace["np"] = numpy
        return getattr(numpy, name)


_NUMPY = _LazyNumpy()


def lazy_numpy(namespace: dict) -> _LazyNumpy:
    """The stand-in for ``np`` in the module whose globals are ``namespace``."""
    _NUMPY.namespaces.append(namespace)
    return _NUMPY
