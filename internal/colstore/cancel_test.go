package colstore

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/storage"
)

// Single-flight cancellation semantics of the ChunkCache: a cancelled
// loader must hand the slot off (waiters retry under their own
// context), a cancelled waiter must abandon without disturbing the
// flight, and ordinary load failures must keep failing every waiter.

func payload() *storage.ChunkPayload {
	return &storage.ChunkPayload{Ints: []int64{1, 2, 3}}
}

// TestChunkCacheCancelledLoaderHandsOff races two readers for one
// chunk: the first (the loader) is cancelled mid-load, the second must
// not inherit the cancellation — it re-arms the slot, loads under its
// own context and gets the payload.
func TestChunkCacheCancelledLoaderHandsOff(t *testing.T) {
	c := NewChunkCache(0)
	owner := new(int)
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()

	aStarted := make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctxA, owner, 0, 0, func() (*storage.ChunkPayload, error) {
			close(aStarted)
			<-ctxA.Done() // a ctx-aware load observing its caller's death
			return nil, obsv.Cancelled(ctxA, "colstore.load")
		})
		aDone <- err
	}()
	<-aStarted

	var bLoads atomic.Int64
	bDone := make(chan error, 1)
	var bPayload *storage.ChunkPayload
	go func() {
		p, _, err := c.Get(context.Background(), owner, 0, 0, func() (*storage.ChunkPayload, error) {
			bLoads.Add(1)
			return payload(), nil
		})
		bPayload = p
		bDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let B join the flight as a waiter
	cancelA()

	if err := <-aDone; !obsv.IsCancellation(err) {
		t.Fatalf("cancelled loader returned %v, want a cancellation", err)
	}
	if err := <-bDone; err != nil {
		t.Fatalf("second reader inherited the canceller's fate: %v", err)
	}
	if bPayload == nil || len(bPayload.Ints) != 3 {
		t.Fatalf("second reader got payload %+v, want the loaded chunk", bPayload)
	}
	if got := bLoads.Load(); got != 1 {
		t.Fatalf("second reader's load ran %d times, want 1", got)
	}
	// The re-armed load cached normally: a later touch is a pure hit.
	_, hit, err := c.Get(context.Background(), owner, 0, 0, func() (*storage.ChunkPayload, error) {
		t.Fatal("payload was not cached after the hand-off")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("post-handoff touch: hit=%v err=%v, want a cache hit", hit, err)
	}
}

// TestChunkCacheCancelledWaiterLeavesFlight: a waiter whose context
// dies abandons with a named cancellation while the flight — and its
// loader — finish untouched.
func TestChunkCacheCancelledWaiterLeavesFlight(t *testing.T) {
	c := NewChunkCache(0)
	owner := new(int)
	release := make(chan struct{})
	started := make(chan struct{})
	loaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), owner, 0, 0, func() (*storage.ChunkPayload, error) {
			close(started)
			<-release
			return payload(), nil
		})
		loaderDone <- err
	}()
	<-started

	ctxW, cancelW := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctxW, owner, 0, 0, func() (*storage.ChunkPayload, error) {
			t.Error("waiter became a loader while the flight was live")
			return nil, nil
		})
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancelW()
	err := <-waiterDone
	var ce *obsv.CancelledError
	if !errors.As(err, &ce) || ce.Stage != "colstore.wait" {
		t.Fatalf("cancelled waiter returned %v, want a colstore.wait cancellation", err)
	}

	close(release)
	if err := <-loaderDone; err != nil {
		t.Fatalf("loader failed after a waiter left: %v", err)
	}
	if !c.Contains(owner, 0, 0) {
		t.Fatal("payload not cached after the flight completed")
	}
}

// TestChunkCacheRealFailureFailsWaiters: non-cancellation load errors
// keep the fail-everyone semantics — a waiter sees the loader's error,
// and nothing is cached.
func TestChunkCacheRealFailureFailsWaiters(t *testing.T) {
	c := NewChunkCache(0)
	owner := new(int)
	boom := errors.New("segment unreadable")
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = c.Get(context.Background(), owner, 0, 0, func() (*storage.ChunkPayload, error) {
			close(started)
			<-release
			return nil, boom
		})
	}()
	<-started
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), owner, 0, 0, func() (*storage.ChunkPayload, error) {
			t.Error("waiter re-loaded after a non-cancellation failure")
			return nil, nil
		})
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-waiterDone; !errors.Is(err, boom) {
		t.Fatalf("waiter got %v, want the loader's failure", err)
	}
	if c.Contains(owner, 0, 0) {
		t.Fatal("failed load left a cached entry")
	}
}
