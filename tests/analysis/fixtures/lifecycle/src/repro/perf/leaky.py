"""Fixture: a process pool left running on the deadline-tail path, buggy and fixed."""


def calibrate_buggy(distinct, grid, items, workers):
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers)
    results = ordered_process_map(task, (distinct, grid), items, pool)
    try:
        for item in results:
            consume(item)
    finally:
        results.close()


def calibrate_fixed(distinct, grid, items, workers):
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers)
    results = ordered_process_map(task, (distinct, grid), items, pool)
    try:
        for item in results:
            consume(item)
    finally:
        results.close()
        if pool is not None:
            pool.shutdown()


def pool_returned(workers):
    # Returning the acquire hands ownership to the caller: not a leak.
    return ProcessPoolExecutor(max_workers=workers)
