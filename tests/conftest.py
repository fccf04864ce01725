import pytest

from lattes_lab import exceptionality


def spy_pools(patch) -> list[int]:
    """Replace exceptionality.ProcessPoolExecutor, through `patch(owner,
    name, value)`, by a pool that records how many chunks each pool is
    handed; map_primes runs one more chunk in its own process."""
    handed: list[int] = []

    class Pool(exceptionality.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            chunks = list(iterables[0])
            handed.append(len(chunks))
            return super().map(fn, chunks, *iterables[1:], **kwargs)

    patch(exceptionality, "ProcessPoolExecutor", Pool)
    return handed


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """The chunks handed to each process pool that map_primes starts."""
    return spy_pools(monkeypatch.setattr)


def pool_chunks(n: int, workers: int) -> int:
    """The chunks map_primes hands its pool for n primes: one fewer than it
    deals, and none when it deals one."""
    return min(workers, -(-n // exceptionality._CHUNK_PRIMES)) - 1
