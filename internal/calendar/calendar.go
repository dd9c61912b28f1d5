// Package calendar maps simulation day offsets to calendar structure
// (day-of-week, month, year) for the temporal-factor analyses
// (Figs 3 and 4). The observation window starts on 1 Jan 2012, matching
// the paper's 2012-2013(+) span.
//
// Every accessor but Date is integer arithmetic on the day offset (no
// time.Time), so the per-rack-day hazard and frame loops can call them
// freely; the exhaustive test pins them to the time package.
package calendar

import (
	"fmt"
	"time"
)

// Epoch is simulation day 0.
var Epoch = time.Date(2012, time.January, 1, 0, 0, 0, 0, time.UTC)

// epochYear is Epoch's calendar year.
const epochYear = 2012

// marchZeroOffset shifts a simulation day to days since 1 Mar of year 0
// in the proleptic Gregorian calendar: 15340 days from 1970-01-01 to
// the epoch, plus 719468 from 0000-03-01 to 1970-01-01.
const marchZeroOffset = 15340 + 719468

// Date returns the calendar date of a simulation day.
func Date(day int) time.Time { return Epoch.AddDate(0, 0, day) }

// civil returns the year and the 0-based month and day of year of a
// simulation day (Hinnant's days-to-civil algorithm). Years are counted
// from 1 March, so the leap day falls at the end of the counted year;
// days are exact for any int offset, negative ones included.
func civil(day int) (year, month, yday int) {
	z := day + marchZeroOffset
	era := z / 146097 // 400-year eras, floored
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097                                  // day of era [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // year of era [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // day of March-based year [0, 365]
	mp := (5*doy + 2) / 153                                // month from March [0, 11]
	year = yoe + era*400
	if mp < 10 { // March..December
		yday = doy + 59
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			yday++
		}
		return year, mp + 2, yday
	}
	// January and February close the March-based year.
	return year + 1, mp - 10, doy - 306
}

// Weekday returns the day of week (0 = Sunday ... 6 = Saturday). Day 0
// (1 Jan 2012) was a Sunday.
func Weekday(day int) int {
	w := day % 7
	if w < 0 {
		w += 7
	}
	return w
}

// IsWeekend reports whether the day falls on Saturday or Sunday.
func IsWeekend(day int) bool {
	w := Weekday(day)
	return w == 0 || w == 6
}

// Month returns the month index (0 = January ... 11 = December).
func Month(day int) int {
	_, m, _ := civil(day)
	return m
}

// YearIndex returns the number of whole years since the epoch year
// (0 for 2012, 1 for 2013, ...).
func YearIndex(day int) int {
	y, _, _ := civil(day)
	return y - epochYear
}

// DayOfYear returns the 0-based day within the calendar year.
func DayOfYear(day int) int {
	_, _, yd := civil(day)
	return yd
}

// WeekOfYear returns the 0-based week within the calendar year (0-52),
// the paper's Table III "Week" feature.
func WeekOfYear(day int) int {
	w := DayOfYear(day) / 7
	if w > 52 {
		w = 52
	}
	return w
}

// WeekNames lists the 53 week labels ("W01".."W53").
func WeekNames() []string {
	out := make([]string, 53)
	for i := range out {
		out[i] = fmt.Sprintf("W%02d", i+1)
	}
	return out
}

// WeekdayNames lists day labels Sunday-first, matching Fig 3's axis.
var WeekdayNames = []string{"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"}

// MonthNames lists month labels, matching Fig 4's axis.
var MonthNames = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"}
